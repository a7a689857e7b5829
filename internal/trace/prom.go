package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// escapeHelp escapes a HELP string per the Prometheus text exposition
// format (version 0.0.4): backslash and line feed. A raw newline in
// help text would otherwise split the comment across lines and corrupt
// the exposition.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, line feed and double quote.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers followed
// by samples, in registration order. Help strings and label values are
// escaped per the format, so adversarial metric help (embedded
// newlines, quotes, backslashes) cannot corrupt the exposition.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	headered := make(map[string]bool)
	for _, m := range r.list() {
		if !headered[m.name] {
			// One HELP/TYPE header per family: labelled variants of the
			// same name share the header of their first registration.
			headered[m.name] = true
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case metricGauge:
			fmt.Fprintf(bw, "%s %d\n", m.sample(), m.value)
		case metricHistogram:
			bounds, cum, sum, total := m.hist.snapshot()
			withLE := func(le string) string {
				return renderLabels(append(append([]Label(nil), m.labels...),
					Label{Key: "le", Value: le}))
			}
			for i, b := range bounds {
				fmt.Fprintf(bw, "%s_bucket%s %d\n", m.name, withLE(strconv.FormatUint(b, 10)), cum[i])
			}
			fmt.Fprintf(bw, "%s_bucket%s %d\n", m.name, withLE("+Inf"), total)
			fmt.Fprintf(bw, "%s_sum%s %d\n", m.name, renderLabels(m.labels), sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", m.name, renderLabels(m.labels), total)
		}
	}
	return bw.Flush()
}
