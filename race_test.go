//go:build race

package queryvis_test

const raceEnabled = true
