package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"swapcodes/internal/jobs"
)

// waitTerminal reads a job's server-sent event stream until the event that
// ends the job: a "done" event, or a state snapshot whose state is already
// terminal (the server sends that when the job finished before the client
// subscribed). It returns that event; a stream that ends first is an error.
func waitTerminal(r io.Reader) (jobs.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data:")
		if !ok {
			continue // id:, event:, comments and frame separators
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(strings.TrimSpace(data)), &ev); err != nil {
			return jobs.Event{}, fmt.Errorf("sse: bad event %q: %w", data, err)
		}
		if ev.Type == "done" || ev.State.Terminal() {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Event{}, fmt.Errorf("sse: %w", err)
	}
	return jobs.Event{}, errors.New("sse: stream ended before a terminal event")
}
