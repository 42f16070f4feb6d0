// Fixture for the servelayer analyzer: a serving package (matched by its
// name) may import phiwork but no kernel package.
package phifleet

import (
	"phiopenssl/internal/dh"      // want `serving package phifleet imports kernel package phiopenssl/internal/dh`
	"phiopenssl/internal/phiwork" // the workload seam is the sanctioned way in
	"phiopenssl/internal/rsakit"  // want `serving package phifleet imports kernel package phiopenssl/internal/rsakit`
)

var (
	_ dh.Group
	_ phiwork.Workload
	_ *rsakit.PrivateKey
)
