package bench

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Table1Row reproduces one row of paper Table I, extended with the CSR
// compression the paper reports in §VI-B (the twitter graph shrinks from
// a 26 GB edge list to 6.5 GB of CSR).
type Table1Row struct {
	Dataset      gen.Dataset // scaled dimensions actually generated
	Paper        gen.Dataset // the paper's full-size dimensions
	Scale        int64
	AvgDegree    float64
	EdgeListMB   float64 // estimated text edge-list size
	CSRFileMB    float64 // measured on-disk CSR size (version 1)
	CompactMB    float64 // measured compact CSR size (version 2, varint delta)
	MaxOutDegree uint32
}

// RunTable1 generates every paper dataset at the given scale and measures
// its properties.
func RunTable1(scale, seed int64, dir string) ([]Table1Row, error) {
	if scale <= 0 {
		scale = 1
	}
	dir, cleanup, err := workDir(dir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rows := make([]Table1Row, 0, len(gen.PaperDatasets))
	for _, ds := range gen.PaperDatasets {
		scaled := ds.Scaled(scale)
		g, err := scaled.Generate(seed)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, ds.Name+".gpsa")
		if err := graph.WriteFile(path, g); err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		cpath := filepath.Join(dir, ds.Name+".c.gpsa")
		if err := graph.WriteFileCompact(cpath, g); err != nil {
			return nil, err
		}
		cst, err := os.Stat(cpath)
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Dataset:   scaled,
			Paper:     ds,
			Scale:     scale,
			AvgDegree: scaled.AvgDegree(),
			// A text edge list averages ~16 bytes per "src\tdst\n" line at
			// these id magnitudes.
			EdgeListMB: float64(scaled.Edges) * 16 / (1 << 20),
			CSRFileMB:  float64(st.Size()) / (1 << 20),
			CompactMB:  float64(cst.Size()) / (1 << 20),
		}
		row.MaxOutDegree = g.OutDegree(maxDegreeVertex(g))
		rows = append(rows, row)
		os.Remove(path)
		os.Remove(path + ".idx")
		os.Remove(cpath)
		os.Remove(cpath + ".idx")
	}
	return rows, nil
}

// FormatTable1 renders rows like paper Table I.
func FormatTable1(rows []Table1Row) string {
	s := fmt.Sprintf("%-22s %12s %14s %8s %10s %8s %9s %8s\n",
		"Name", "Nodes", "Edges", "AvgDeg", "EdgeListMB", "CSRMB", "CompactMB", "MaxDeg")
	for _, r := range rows {
		s += fmt.Sprintf("%-22s %12d %14d %8.1f %10.1f %8.1f %9.1f %8d\n",
			r.Dataset.Name, r.Dataset.Vertices, r.Dataset.Edges, r.AvgDegree,
			r.EdgeListMB, r.CSRFileMB, r.CompactMB, r.MaxOutDegree)
	}
	return s
}
