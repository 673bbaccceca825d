package arith_test

import (
	"sync"
	"testing"

	"classpack/internal/bench"
	"classpack/internal/core"
	"classpack/internal/encoding/arith"
	"classpack/internal/streams"
)

// trialLimit is streams' arithTrialLimit: the container offers a stream
// to this coder only when it holds at most this many bytes.
const trialLimit = 1 << 16

var toolsStreams = sync.OnceValues(func() ([][]byte, error) {
	c, err := bench.Load("tools", 1.0)
	if err != nil {
		return nil, err
	}
	// Packed without compression, every stream is stored, so each
	// section of the container is a raw stream.
	opts := core.DefaultOptions()
	opts.Compress = false
	packed, err := core.Pack(c.Stripped, opts)
	if err != nil {
		return nil, err
	}
	body := packed[6:]
	secs, err := streams.Sections(body, true)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, s := range secs {
		if s.Len > 0 && s.Len <= trialLimit {
			out = append(out, body[s.Off:s.Off+s.Len])
		}
	}
	return out, nil
})

// loadStreams returns the streams of at most 64 KiB of tools packed as
// Pack packs it, the ones the container trial-codes with this coder,
// and their total size.
func loadStreams(b *testing.B) ([][]byte, int64) {
	b.Helper()
	raw, err := toolsStreams()
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, r := range raw {
		total += int64(len(r))
	}
	return raw, total
}

var sink []byte

// BenchmarkEncode codes every stream of tools that the container
// trial-codes; MB/s counts raw bytes.
func BenchmarkEncode(b *testing.B) {
	raw, total := loadStreams(b)
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range raw {
			sink = arith.Encode(r)
		}
	}
}

// BenchmarkDecode decodes those streams' codings; MB/s counts raw bytes.
func BenchmarkDecode(b *testing.B) {
	raw, total := loadStreams(b)
	coded := make([][]byte, len(raw))
	for i, r := range raw {
		coded[i] = arith.Encode(r)
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range coded {
			out, err := arith.Decode(c, len(raw[j]))
			if err != nil {
				b.Fatal(err)
			}
			sink = out
		}
	}
}
