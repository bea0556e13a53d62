package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunTiny runs the harness end to end at tiny sizes: it must exit 0,
// report the async mode, and find the sharded client's dated log equal
// to the one-kernel run's.
func TestRunTiny(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run1([]string{"-n", "40", "-load", "200", "-pairs", "1", "-warmup", "4", "-best", "1", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	var rep reportJSON
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, out.String())
	}
	if !rep.DatesEqual {
		t.Fatalf("dates_equal false:\n%s", out.String())
	}
	if len(rep.Modes) != 1 || rep.Modes[0].Mode != "async" || rep.Modes[0].RoundTrips != 40 {
		t.Fatalf("modes = %+v, want one async mode with 40 round trips", rep.Modes)
	}
}
