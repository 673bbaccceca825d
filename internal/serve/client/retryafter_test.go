package client

import (
	"testing"
	"time"
)

// TestParseRetryAfterSeconds covers the delay-seconds form: positive
// values parse, zero and negative mean "now" and collapse to 0, and
// anything that is not an integer falls through to the (failing)
// HTTP-date parse. TestParseRetryAfterHTTPDate covers the date form.
func TestParseRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"garbage", 0},
		{"1.5", 0},                           // RFC 9110 delay-seconds is an integer
		{"Wed, 99 Foo 2026 00:00:00 GMT", 0}, // date-shaped but malformed
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
