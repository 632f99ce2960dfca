package serve

import "time"

// SetSSEKeepAlive sets the /events keep-alive interval until the
// returned function restores it. Call it before the server under test
// starts, and restore it after that server has closed.
func SetSSEKeepAlive(d time.Duration) (restore func()) {
	old := sseKeepAlive
	sseKeepAlive = d
	return func() { sseKeepAlive = old }
}
