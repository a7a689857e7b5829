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

// unescapeHelp is escapeHelp's inverse (scrape round-trips).
func unescapeHelp(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				sb.WriteByte('\n')
				i++
				continue
			case '\\':
				sb.WriteByte('\\')
				i++
				continue
			}
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
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

// Scrape is the parsed form of a text exposition: samples keyed by the
// full sample name (including any {labels} suffix, in the canonical
// escaped spelling WritePrometheus produces) and the unescaped HELP
// string per metric family.
type Scrape struct {
	Samples map[string]float64
	Help    map[string]string
}

// ScrapePrometheus parses text in the Prometheus exposition format. It
// validates that every sample line parses, that every sample was
// preceded by a # TYPE header for its metric family, and it unescapes
// HELP text — WritePrometheus → ScrapePrometheus round-trips help
// strings exactly.
func ScrapePrometheus(rd io.Reader) (*Scrape, error) {
	out := &Scrape{
		Samples: make(map[string]float64),
		Help:    make(map[string]string),
	}
	typed := make(map[string]bool)
	sc := bufio.NewScanner(rd)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				typed[fields[2]] = true
			}
			if len(fields) == 4 && fields[1] == "HELP" {
				out.Help[fields[2]] = unescapeHelp(fields[3])
			}
			continue
		}
		// Sample: name[{labels}] value. The value is the last
		// space-separated token; label values may themselves contain
		// spaces, which is why the split runs from the right.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prometheus line %d: no value in %q", lineNo, line)
		}
		name, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %d: bad value %q: %w", lineNo, valStr, err)
		}
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if !typed[family] {
			return nil, fmt.Errorf("prometheus line %d: sample %q without # TYPE header", lineNo, name)
		}
		if _, dup := out.Samples[name]; dup {
			return nil, fmt.Errorf("prometheus line %d: duplicate sample %q", lineNo, name)
		}
		out.Samples[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
