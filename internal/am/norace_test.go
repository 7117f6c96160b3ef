//go:build !race

package am

const raceEnabled = false
