package simd

import "msc/internal/ir"

// minTileRows is the depth a chunk's stack tile gets on its first push.
const minTileRows = 4

// chunkSpan returns chunk c's first PE and PE count: the origin and
// row width of its stack tiles. Depth d of PE pe sits at
// tile[d*width+pe-p0].
func (m *vm) chunkSpan(c int) (p0, width int) {
	w0, w1 := m.chunkWords(c)
	p0, p1 := w0<<6, w1<<6
	if p1 > m.n {
		p1 = m.n
	}
	return p0, p1 - p0
}

// growTile returns a tile of width-wide rows with twice the rows of t
// (minTileRows for an empty one) and t's contents. Rows are depths, so
// every existing entry keeps its index. Only the worker that owns the
// chunk for the current pass calls it.
func growTile[T ir.Word | int32](t []T, width int) []T {
	rows := 2 * len(t) / width
	if rows == 0 {
		rows = minTileRows
	}
	nt := make([]T, rows*width)
	copy(nt, t)
	return nt
}
