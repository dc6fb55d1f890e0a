package experiments

import (
	"fmt"
	"strings"
)

// RunEmbedStudy is the §5 embedding-method comparison: the paper tried
// DeepWalk, LINE and node2vec to initialize its embedding matrices and kept
// node2vec. It trains DeepOD once per method on the first city and reports
// the test errors, with the method as the rows' variant.
func RunEmbedStudy(s *Suite) ([]Row, error) {
	city := s.Scale.CityList()[0]
	w, err := s.World(city)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, method := range []string{"node2vec", "deepwalk", "line"} {
		cfg := s.Scale.Cfg
		cfg.EmbedMethod = method
		m, err := trainDeepOD(cfg, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: embed study %s: %w", method, err)
		}
		actual, pred := evaluate(m, w.Split.Test)
		r := s.row("embedstudy", city, "DeepOD", "test")
		r.Variant = method
		rows = append(rows, score(r, actual, pred, "mae", "mape")...)
	}
	return rows, nil
}

func renderEmbedStudy(scale string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Embedding-method study (§5; %s, scale=%s)\n", rows[0].City, scale)
	summary(&b, rows, byVariant)
	return b.String()
}
