package noc

import (
	"fmt"
	"sort"
	"strings"
)

// HeatmapRow is one link's load for CSV export (Fig. 9 data).
type HeatmapRow struct {
	FromX, FromY int
	ToX, ToY     int
	D2D          bool
	Bytes        float64
	// Pressure is the load normalized by link bandwidth; D2D links show
	// proportionally higher pressure, as in the paper's figure.
	Pressure float64
}

// HeatmapRows returns per-link loads in bytes sorted by descending pressure.
func (t *Traffic) HeatmapRows() []HeatmapRow {
	rows := make([]HeatmapRow, 0, len(t.load))
	for i := range t.load {
		l, load := t.net.Links[i], t.linkBytes(i)
		fx, fy := t.net.Cfg.CoreXY(l.From)
		tx, ty := t.net.Cfg.CoreXY(l.To)
		bw := t.net.LinkBW(i)
		p := 0.0
		if bw > 0 {
			p = load / bw
		}
		rows = append(rows, HeatmapRow{fx, fy, tx, ty, l.D2D, load, p})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Pressure > rows[b].Pressure })
	return rows
}

// CSV renders the heatmap rows as a CSV document.
func (t *Traffic) CSV() string {
	var b strings.Builder
	b.WriteString("from_x,from_y,to_x,to_y,d2d,bytes,pressure\n")
	for _, r := range t.HeatmapRows() {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%t,%.0f,%.3f\n", r.FromX, r.FromY, r.ToX, r.ToY, r.D2D, r.Bytes, r.Pressure)
	}
	return b.String()
}

// ASCII renders a coarse textual heatmap: for every core, the maximum
// pressure over its outgoing links, bucketed 0-9, with '|' marking vertical
// chiplet cuts. Intended for terminal inspection of Fig. 9-style data.
func (t *Traffic) ASCII() string {
	cfg := t.net.Cfg
	maxP := 0.0
	peak := make([]float64, cfg.Cores())
	for i := range t.load {
		bw := t.net.LinkBW(i)
		if bw <= 0 {
			continue
		}
		p := t.linkBytes(i) / bw
		from := int(t.net.Links[i].From)
		if p > peak[from] {
			peak[from] = p
		}
		if p > maxP {
			maxP = p
		}
	}
	var b strings.Builder
	for y := 0; y < cfg.CoresY; y++ {
		for x := 0; x < cfg.CoresX; x++ {
			if x > 0 && x%cfg.ChipletW() == 0 {
				b.WriteByte('|')
			} else if x > 0 {
				b.WriteByte(' ')
			}
			v := 0
			if maxP > 0 {
				v = int(peak[cfg.CoreAt(x, y)] / maxP * 9.999)
				if v > 9 {
					v = 9
				}
			}
			b.WriteByte(byte('0' + v))
		}
		b.WriteByte('\n')
		if (y+1)%cfg.ChipletH() == 0 && y+1 < cfg.CoresY {
			b.WriteString(strings.Repeat("-", 2*cfg.CoresX-1) + "\n")
		}
	}
	return b.String()
}
