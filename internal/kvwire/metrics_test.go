package kvwire

import (
	"errors"
	"testing"
)

// TestMetricsFrame: the METRICS request is an empty-payload frame, parsed
// like STATS and PING: any byte after the opcode is a trailing byte and
// the frame is malformed.
func TestMetricsFrame(t *testing.T) {
	var req Request

	frame := AppendEmpty(GetBuf(), OpMetrics)
	if err := ParseRequest(frame[4:], &req); err != nil {
		t.Fatalf("parse METRICS: %v", err)
	}
	if req.Op != OpMetrics {
		t.Fatalf("op = %d, want OpMetrics", req.Op)
	}

	for _, body := range [][]byte{{OpMetrics, 0}, {OpMetrics, 1 << 3}} {
		if err := ParseRequest(body, &req); !errors.Is(err, ErrFrame) {
			t.Fatalf("METRICS with trailing byte %#x accepted: %v", body[1], err)
		}
	}
}
