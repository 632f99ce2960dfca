package core

// RaceDetectorEnabled lets the external test package skip its
// heavyweight sequential flows under -race, as skipUnderRace does here.
const RaceDetectorEnabled = raceDetectorEnabled
