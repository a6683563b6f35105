//go:build !race

package queryvis_test

const raceEnabled = false
