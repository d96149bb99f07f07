package bench

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV emits a figure's rows as CSV (one row per bar), suitable for
// external plotting of the paper's grouped bar charts.
func (r *FigureResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "scale", "algo", "system", "seconds", "sec_per_step", "supersteps", "cpu_percent", "runs"}); err != nil {
		return err
	}
	for _, c := range r.Rows {
		rec := []string{
			r.Dataset.Name,
			strconv.FormatInt(r.Scale, 10),
			string(c.Algo),
			string(c.System),
			strconv.FormatFloat(c.Seconds, 'g', -1, 64),
			strconv.FormatFloat(c.PerStep(), 'g', -1, 64),
			strconv.Itoa(c.Supersteps),
			strconv.FormatFloat(c.CPUPercent, 'g', -1, 64),
			strconv.Itoa(r.Runs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
