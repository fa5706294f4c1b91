package generate

import "fmt"

// UserName formats the i-th generated member's handle ("u000042") — the
// naming every generator in this package assigns in node-ID order, which
// drivers that address a server by name (cmd/acbench's HTTP mode) rely on
// to map node IDs back to members.
func UserName(i int) string { return fmt.Sprintf("u%06d", i) }
