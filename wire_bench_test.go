package head_test

// Zero-allocation guarantees of the binary wire codec. The serve hot path
// encodes and decodes /v1/decide payloads per request; with reused buffers
// (sync.Pool'd in the mux, donated storage in the decoder) the kernels
// must report 0 allocs/op — CI's bench-alloc job enforces the ceiling via
// cmd/benchcheck alongside the compute-core benches. JSON siblings measure
// the same snapshot through encoding/json for a hand-run format
// comparison; the serving docs quote the repository benchmark's
// serve.json_decode_us and serve.wire_decode_us instead.

import (
	"encoding/json"
	"testing"

	"head/internal/serve"
	"head/internal/world"
)

// benchWireFrames builds a record-scale-shaped snapshot: Z=4 history
// frames, each carrying a handful of observed vehicles.
func benchWireFrames() []serve.Frame {
	frames := make([]serve.Frame, 4)
	for i := range frames {
		frames[i] = serve.Frame{AV: world.State{Lat: 1, Lon: 120.5 + float64(i), V: 14.25}}
		for j := 0; j < 6; j++ {
			frames[i].Vehicles = append(frames[i].Vehicles, serve.Vehicle{
				ID:    j + 1,
				State: world.State{Lat: (i + j) % 3, Lon: 80 + 10*float64(j), V: 12 + 0.5*float64(j)},
			})
		}
	}
	return frames
}

// BenchmarkWireEncode times one full-snapshot request encode into a reused
// buffer.
func BenchmarkWireEncode(b *testing.B) {
	frames := benchWireFrames()
	session := []byte("veh-000")
	dst := serve.AppendFull(nil, session, frames)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = serve.AppendFull(dst[:0], session, frames)
	}
}

// BenchmarkWireDecode times one request decode with donated frame storage —
// the warmed server's steady state.
func BenchmarkWireDecode(b *testing.B) {
	frames := benchWireFrames()
	enc := serve.AppendFull(nil, []byte("veh-000"), frames)
	req, err := serve.DecodeRequest(enc, nil)
	if err != nil {
		b.Fatal(err)
	}
	into := req.Frames
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err = serve.DecodeRequest(enc, into)
		if err != nil {
			b.Fatal(err)
		}
		into = req.Frames
	}
}

// BenchmarkWireHash times the FNV-1a snapshot digest both delta-protocol
// ends compute per request.
func BenchmarkWireHash(b *testing.B) {
	frames := benchWireFrames()
	b.ReportAllocs()
	b.ResetTimer()
	var h uint64
	for i := 0; i < b.N; i++ {
		h = serve.HashFrames(frames)
	}
	_ = h
}

// BenchmarkJSONEncodeObservation / BenchmarkJSONDecodeObservation are the
// JSON siblings of the wire kernels — same snapshot through encoding/json,
// for a hand-run format comparison (not alloc-gated; reflection allocates
// by design).
func BenchmarkJSONEncodeObservation(b *testing.B) {
	o := serve.Observation{Frames: benchWireFrames()}
	data, err := json.Marshal(o)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONDecodeObservation(b *testing.B) {
	data, err := json.Marshal(serve.Observation{Frames: benchWireFrames()})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var o serve.Observation
		if err := json.Unmarshal(data, &o); err != nil {
			b.Fatal(err)
		}
	}
}
