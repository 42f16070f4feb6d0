// Fixture for the servelayer analyzer: outside the serving packages a
// kernel import is ordinary (the workloads and the TLS simulator wrap
// kernels directly).
package tlsdemo

import (
	"phiopenssl/internal/dh"
	"phiopenssl/internal/rsakit"
)

var (
	_ dh.Group
	_ *rsakit.PrivateKey
)
