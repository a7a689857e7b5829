package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Accessors only this package's tests use.

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
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
