package generate

import "strconv"

// UserName formats the i-th generated member's handle ("u000042") — the
// naming every generator in this package assigns in node-ID order, which
// drivers that address a server by name (cmd/acbench's HTTP mode) rely on
// to map node IDs back to members. It writes exactly the bytes of
// fmt.Sprintf("u%06d", i), sign included, without boxing i.
func UserName(i int) string {
	var buf [24]byte
	b := append(buf[:0], 'u')
	n := uint64(i)
	if i < 0 {
		b = append(b, '-')
		n = -n
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], n, 10)
	// The width of 6 counts the sign, as in fmt's %06d.
	for w := len(b) - 1 + len(d); w < 6; w++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}
