package gosafe_test

import (
	"testing"

	"rumble/internal/analysis/analysistest"
	"rumble/internal/analysis/gosafe"
)

func TestGoSafe(t *testing.T) {
	analysistest.Run(t, "testdata", gosafe.Analyzer, "gosafe")
}
