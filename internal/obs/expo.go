// Exposition: the registry renders itself as Prometheus text format
// 0.0.4, which spexd serves at GET /metrics and the CLIs' -metrics-out
// flag writes to a file.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format, families and series in sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.sortedKeys() {
			values := f.splitKey(key)
			f.mu.RLock()
			m := f.children[key]
			f.mu.RUnlock()
			switch m := m.(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labels, values, "", ""), m.Value())
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(m.Value()))
			case *Histogram:
				var cum uint64
				for i, b := range m.bounds {
					cum += m.buckets[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", formatFloat(b)), cum)
				}
				cum += m.buckets[len(m.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", "+Inf"), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(m.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), cum)
			}
		}
	}
	return bw.Flush()
}

// WriteFile atomically writes the WritePrometheus rendering to path
// (the CLIs' -metrics-out dump): a temp file in path's directory, then
// a rename, so a reader never sees a torn dump.
func (r *Registry) WriteFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".metrics-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := r.WritePrometheus(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedKeys() []string {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// splitKey recovers the label values joined by child.
func (f *family) splitKey(key string) []string {
	if len(f.labels) == 0 {
		return nil
	}
	return strings.SplitN(key, labelSep, len(f.labels))
}

// labelString renders {a="x",b="y"} (plus an optional extra pair,
// used for histogram le labels), or "" when there are no labels.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
