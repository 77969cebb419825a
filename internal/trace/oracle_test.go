package trace

import (
	"encoding/json"
	"io"
)

// This file holds ChromeStream's reference oracle: a buffered exporter
// built on encoding/json. The streaming writer must reproduce its bytes.

// chromeEvent is one entry in the Chrome trace-event JSON array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeMetaEvents renders the process/thread naming metadata that leads
// the event array.
func chromeMetaEvents(tracks []string, pidOf, tidOf map[string]int, unitNames []string) []chromeEvent {
	out := make([]chromeEvent, 0, len(unitNames)+len(tracks))
	for _, u := range unitNames {
		out = append(out, chromeEvent{
			Name: "process_name", Phase: "M", PID: pidOf[u],
			Args: map[string]any{"name": u},
		})
	}
	for _, track := range tracks {
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: pidOf[trackUnit(track)], TID: tidOf[track],
			Args: map[string]any{"name": track},
		})
	}
	return out
}

// toChromeEvent converts one recorded event: spans become complete ("X")
// events, instants thread-scoped ("i"), and span/parent/detail ride in
// args so the causal chain survives the export.
func toChromeEvent(e Event, pidOf, tidOf map[string]int) chromeEvent {
	track := e.Track.String()
	ce := chromeEvent{
		Name: e.Name.String(),
		TS:   float64(e.Start) / psPerMicro,
		PID:  pidOf[trackUnit(track)],
		TID:  tidOf[track],
	}
	if e.Point() {
		ce.Phase = "i"
		ce.Scope = "t"
	} else {
		ce.Phase = "X"
		ce.Dur = float64(e.End-e.Start) / psPerMicro
	}
	args := map[string]any{}
	if e.Span != 0 {
		args["span"] = uint64(e.Span)
	}
	if e.Parent != 0 {
		args["parent"] = uint64(e.Parent)
	}
	if d := e.Detail.String(); d != "" {
		args["detail"] = d
	}
	if len(args) > 0 {
		ce.Args = args
	}
	return ce
}

// WriteChromeTrace writes the tracer's buffered events in Chrome
// trace-event JSON through encoding/json: the oracle a ChromeStream fed
// the same events must match byte for byte.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	tracks := t.Tracks()
	pidOf, tidOf, unitNames := chromeLayout(tracks)

	out := chromeFile{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	out.TraceEvents = append(out.TraceEvents, chromeMetaEvents(tracks, pidOf, tidOf, unitNames)...)
	for _, e := range events {
		out.TraceEvents = append(out.TraceEvents, toChromeEvent(e, pidOf, tidOf))
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
