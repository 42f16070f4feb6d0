package analyzers_test

import (
	"path/filepath"
	"testing"

	"phiopenssl/internal/phivet/analysistest"
	"phiopenssl/internal/phivet/analyzers"
)

func TestServeLayer(t *testing.T) {
	analysistest.Run(t, analyzers.ServeLayer, filepath.Join("testdata", "src", "servelayer"))
	analysistest.Run(t, analyzers.ServeLayer, filepath.Join("testdata", "src", "servelayer_kernel"))
}
