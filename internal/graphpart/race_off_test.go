//go:build !race

package graphpart

const raceEnabled = false
