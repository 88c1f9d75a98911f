package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spex/internal/obs"
)

// A job's daemon trace splits into the job span, the campaign's extent
// over its system spans, and the outcomes that executed.
func TestJobSpansSplitsDaemonTrace(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	doc := obs.TraceDoc{Spans: []obs.SpanDoc{
		{ID: "1", Kind: obs.SpanJob, Start: at(0), End: at(100), DurationNS: int64(100 * time.Millisecond)},
		{ID: "2", Parent: "1", Kind: obs.SpanSystem, Start: at(20), End: at(70)},
		{ID: "3", Parent: "2", Kind: obs.SpanMisconf, Start: at(20), End: at(30), DurationNS: int64(10 * time.Millisecond)},
		{ID: "4", Parent: "1", Kind: obs.SpanSystem, Start: at(10), End: at(60)},
		{ID: "5", Parent: "4", Kind: obs.SpanMisconf, Start: at(60), End: at(60), Attrs: map[string]string{"replayed": "true"}},
	}}
	job, run, tasks := jobSpans(doc)
	if job != 100*time.Millisecond || run != 60*time.Millisecond {
		t.Errorf("job %v run %v, want 100ms and 60ms (10ms to 70ms)", job, run)
	}
	if len(tasks) != 1 || tasks[0] != 10*time.Millisecond {
		t.Errorf("tasks %v, want the one executed outcome of 10ms", tasks)
	}

	tr := newTracer()
	root := tr.add("http.job.cold", 0, at(-5), at(105))
	tr.graft(root, doc)
	for _, lt := range tr.layerTimes() {
		if lt.Name == "spexd.job" && (lt.Count != 1 || lt.Self < 39.9 || lt.Self > 40.1) {
			t.Errorf("spexd.job: %+v, want one span with 40ms outside its systems", lt)
		}
	}
}

// A scrape keeps each series by name and labels, and sum adds a
// family's series whatever their labels.
func TestScrapeParsesExposition(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`# HELP spex_x_seconds x
# TYPE spex_x_seconds histogram
spex_x_seconds_bucket{endpoint="a",le="+Inf"} 2
spex_x_seconds_sum{endpoint="a"} 0.5
spex_x_seconds_sum{endpoint="b"} 1.25
spex_x_seconds_count{endpoint="a"} 2
spex_y_total 7
`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1)
	defer c.close()
	s, err := c.scrape(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := s[`spex_x_seconds_sum{endpoint="b"}`]; got != 1.25 {
		t.Errorf("endpoint b sum = %v, want 1.25", got)
	}
	if got := s.sum("spex_x_seconds_sum"); got != 1.75 {
		t.Errorf("family sum = %v, want 1.75", got)
	}
	if got := s.sum("spex_y_total"); got != 7 {
		t.Errorf("unlabelled series = %v, want 7", got)
	}
	if d := (series{"a": 5}).minus(series{"a": 2}); d["a"] != 3 {
		t.Errorf("minus = %v, want a=3", d)
	}
}
