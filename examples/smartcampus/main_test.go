package main

import (
	"testing"

	"croesus"
)

func building(x, y float64) croesus.Detection {
	return croesus.Detection{Label: "building", Confidence: 0.9, Box: croesus.Rect{X: x, Y: y, W: 0.1, H: 0.1}}
}

// TestCenterMostBuilding pins trsrv's trigger: the building nearest the
// frame center wins, and a frame without a building fires nothing.
func TestCenterMostBuilding(t *testing.T) {
	car := croesus.Detection{Label: "car", Box: croesus.Rect{X: 0.45, Y: 0.45, W: 0.1, H: 0.1}}
	d, ok := centerMost([]croesus.Detection{building(0.05, 0.05), car, building(0.44, 0.44)})
	if !ok || d.Box.X != 0.44 {
		t.Errorf("centerMost = %v, %v; want the building at 0.44", d.Box, ok)
	}
	if _, ok := centerMost([]croesus.Detection{car}); ok {
		t.Error("centerMost picked a label with no building present")
	}
}
