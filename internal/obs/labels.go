package obs

import (
	"sort"
	"strings"
)

// Labeled metric names. The registry is deliberately flat — a map from one
// string to one instrument — so dimensions (kernel, scheme, unit, stall
// reason, ...) are encoded *in* the name using the canonical form
//
//	base{k1="v1",k2="v2"}
//
// with keys sorted and values quoted. Name builds that form, ParseName
// splits it back, and the Prometheus exporter (WritePrometheus) relies on
// it to emit real label sets. DESIGN.md section 8 documents the naming
// convention; producers must build labeled names through Name so that the
// same dimension set always yields the same series (keys in a different
// order must not mint a second instrument).

// Label is one name dimension.
type Label struct {
	Key, Value string
}

// Name composes a labeled metric name from a base and key/value pairs
// (must be even-length; odd trailing args are dropped). Keys are sorted so
// the composition is canonical, and empty-valued labels are kept — an
// empty dimension is still a dimension. With no pairs it returns base.
func Name(base string, kv ...string) string {
	n := len(kv) / 2
	if n == 0 {
		return base
	}
	labels := make([]Label, n)
	for i := 0; i < n; i++ {
		labels[i] = Label{Key: kv[2*i], Value: kv[2*i+1]}
	}
	return NameL(base, labels)
}

// NameL is Name over an explicit label slice.
func NameL(base string, labels []Label) string {
	if len(labels) == 0 {
		return base
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote, and newline — the three
// characters the Prometheus text exposition format requires escaping in
// label values. Applying it at composition time keeps ParseName a simple
// scan and makes the stored name directly emittable.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ParseName splits a labeled name into its base and label list. Names
// without labels return a nil slice. Malformed suffixes (no closing brace,
// missing quotes) are treated as part of the base rather than dropped, so
// a registry with free-form names still exports every series.
func ParseName(name string) (base string, labels []Label) {
	open := strings.IndexByte(name, '{')
	if open < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	base = name[:open]
	body := name[open+1 : len(name)-1]
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return name, nil // malformed: keep the raw name as base
		}
		key := body[:eq]
		rest := body[eq+2:]
		// Scan for the closing quote, honoring backslash escapes.
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return name, nil
		}
		labels = append(labels, Label{Key: key, Value: unescapeLabelValue(rest[:end])})
		body = rest[end+1:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
		} else if len(body) > 0 {
			return name, nil
		}
	}
	return base, labels
}

func unescapeLabelValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
			switch v[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(v[i])
			}
			continue
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

// SumCounters sums every counter whose base name (labels stripped) equals
// base — the aggregate view of a labeled counter family, used by progress
// lines that want one number across kernels/schemes/units.
func (r *Registry) SumCounters(base string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	for name, c := range r.counters {
		if b, _ := ParseName(name); b == base {
			sum += c.Value()
		}
	}
	return sum
}
