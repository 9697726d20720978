package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"head/internal/sensor"
	"head/internal/world"
)

// wireTestFrames builds a deterministic z-frame snapshot exercising the
// codec's edge shapes: negative lats/ids, an empty frame, varying vehicle
// counts.
func wireTestFrames(z int) []Frame {
	frames := make([]Frame, z)
	for i := range frames {
		frames[i] = Frame{AV: world.State{Lat: i - 1, Lon: 12.5 * float64(i+1), V: 3.25 - float64(i)}}
		for j := 0; j < i%3; j++ {
			frames[i].Vehicles = append(frames[i].Vehicles, Vehicle{
				ID:    -(i*10 + j),
				State: world.State{Lat: 2 - j, Lon: -7.75 * float64(j+1), V: 0.125 * float64(i*j)},
			})
		}
	}
	return frames
}

func TestWireFullRoundTrip(t *testing.T) {
	frames := wireTestFrames(5)
	enc := AppendFull(nil, []byte("sess-1"), frames)
	req, err := DecodeRequest(enc, nil)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if req.Kind != WireFull {
		t.Fatalf("kind = %d, want WireFull", req.Kind)
	}
	if string(req.Session) != "sess-1" {
		t.Fatalf("session = %q", req.Session)
	}
	if !reflect.DeepEqual(req.Frames, frames) {
		t.Fatalf("frames round-trip mismatch:\n got %+v\nwant %+v", req.Frames, frames)
	}
	// The layout is canonical: re-encoding a decoded request reproduces the
	// input bytes exactly.
	if re := AppendFull(nil, req.Session, req.Frames); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs from original encoding")
	}
}

func TestWireDeltaRoundTrip(t *testing.T) {
	newest := wireTestFrames(7)[6:]
	hash := HashFrames(wireTestFrames(7))
	enc := AppendDelta(nil, []byte("s"), hash, newest)
	req, err := DecodeRequest(enc, nil)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if req.Kind != WireDelta || req.BaseHash != hash {
		t.Fatalf("kind=%d hash=%x, want delta/%x", req.Kind, req.BaseHash, hash)
	}
	if !reflect.DeepEqual(req.Frames, newest) {
		t.Fatalf("delta frames mismatch")
	}
	if re := AppendDelta(nil, req.Session, req.BaseHash, req.Frames); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs from original encoding")
	}
}

func TestWireDecodeReusesStorage(t *testing.T) {
	a := wireTestFrames(6)
	enc := AppendFull(nil, nil, a)
	first, err := DecodeRequest(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := DecodeRequest(enc, first.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Frames, a) {
		t.Fatalf("reused-storage decode mismatch")
	}
	if &first.Frames[0] != &second.Frames[0] {
		t.Fatalf("decode did not reuse donated frame storage")
	}
}

func TestWireRequestRejectsCorrupt(t *testing.T) {
	frames := wireTestFrames(3)
	valid := AppendFull(nil, []byte("abc"), frames)

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		data := mutate(append([]byte(nil), valid...))
		if _, err := DecodeRequest(data, nil); err == nil {
			t.Errorf("%s: decode accepted corrupt payload", name)
		}
	}

	if _, err := DecodeRequest(nil, nil); err == nil {
		t.Error("empty payload accepted")
	}
	corrupt("wrong version", func(b []byte) []byte { b[0] = 99; return b })
	corrupt("unknown kind", func(b []byte) []byte { b[1] = 77; return b })
	corrupt("session length past end", func(b []byte) []byte { b[2] = 255; return b })
	corrupt("trailing bytes", func(b []byte) []byte { return append(b, 0xEE) })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-3] })
	corrupt("flen mismatch", func(b []byte) []byte { b[6]++; return b })
	corrupt("oversized vehicle count", func(b []byte) []byte {
		// First frame's vcount lives right after header(3)+session(3)+
		// flen(4)+count(2)+lat(4)+lon(8)+v(8).
		at := 3 + 3 + 4 + 2 + 4 + 8 + 8
		b[at], b[at+1] = 0xFF, 0xFF
		return b
	})

	// Oversized frame count: header declares 300 frames with no bodies.
	big := appendRequestHeader(nil, WireFull, nil)
	at := len(big)
	big = appendU32(big, 0)
	big = appendU16(big, 300)
	backpatchLen(big, at)
	if _, err := DecodeRequest(big, nil); err == nil {
		t.Error("300-frame header accepted")
	}

	// Delta without a session id is meaningless — nothing to advance.
	noSess := AppendDelta(nil, nil, 42, frames[:1])
	if _, err := DecodeRequest(noSess, nil); err == nil {
		t.Error("sessionless delta accepted")
	}

	// Zero frames carry no decision input.
	empty := AppendFull(nil, []byte("s"), nil)
	if _, err := DecodeRequest(empty, nil); err == nil {
		t.Error("frameless request accepted")
	}
}

func TestWireRequestTruncationNeverPanics(t *testing.T) {
	enc := AppendDelta(nil, []byte("session-xyz"), 0xDEADBEEF, wireTestFrames(4))
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeRequest(enc[:i], nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	for _, dr := range []DecideResponse{
		{
			Decision: Decision{
				Behavior: 1, BehaviorName: world.Behavior(1).String(), Accel: -1.5,
				Params: []float64{0.5, -1.5, 2.25}, AttnEntropy: 0.693,
				Attention: [][]float64{{0.25, 0.75}, {1}},
			},
			RequestID: "req-7", BatchSize: 8,
			QueueMicros: 120, SealMicros: 4, InferMicros: 900, ReplyMicros: 11, DecideMicros: 904,
		},
		{
			Decision:  Decision{Behavior: 0, BehaviorName: world.Behavior(0).String(), Accel: 2},
			RequestID: "srv-000001", BatchSize: 1,
		},
	} {
		enc := AppendResponse(nil, &dr)
		var got DecideResponse
		if err := DecodeResponse(enc, &got); err != nil {
			t.Fatalf("DecodeResponse: %v", err)
		}
		if !reflect.DeepEqual(got, dr) {
			t.Fatalf("response round-trip mismatch:\n got %+v\nwant %+v", got, dr)
		}
	}
}

func TestWireResponseRejectsCorrupt(t *testing.T) {
	dr := DecideResponse{
		Decision:  Decision{Behavior: 2, BehaviorName: world.Behavior(2).String(), Params: []float64{1}},
		RequestID: "r", BatchSize: 3,
	}
	enc := AppendResponse(nil, &dr)
	for i := 0; i < len(enc); i++ {
		var got DecideResponse
		if err := DecodeResponse(enc[:i], &got); err == nil {
			t.Fatalf("response prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
	var got DecideResponse
	if err := DecodeResponse(append(append([]byte(nil), enc...), 1), &got); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[1] = WireFull
	if err := DecodeResponse(bad, &got); err == nil {
		t.Fatal("request kind accepted as response")
	}
}

func TestHashFramesSensitivity(t *testing.T) {
	base := wireTestFrames(4)
	h := HashFrames(base)
	if h != HashFrames(wireTestFrames(4)) {
		t.Fatal("equal snapshots hash differently")
	}
	mutations := []func([]Frame){
		func(f []Frame) { f[0].AV.Lat++ },
		func(f []Frame) { f[1].AV.Lon += 1e-9 },
		func(f []Frame) { f[3].AV.V = -f[3].AV.V },
		func(f []Frame) { f[2].Vehicles[0].ID++ },
		func(f []Frame) { f[2].Vehicles[0].State.Lon *= 2 },
	}
	for i, mut := range mutations {
		fr := wireTestFrames(4)
		mut(fr)
		if HashFrames(fr) == h {
			t.Errorf("mutation %d left the hash unchanged", i)
		}
	}
	if HashFrames(base[:3]) == HashFrames(base) {
		t.Error("dropping a frame left the hash unchanged")
	}
}

func TestErrResyncWrapped(t *testing.T) {
	c := NewSessionCache(2)
	_, err := c.Advance("ghost", 1, wireTestFrames(1))
	if !errors.Is(err, ErrResync) {
		t.Fatalf("unknown-session error does not wrap ErrResync: %v", err)
	}
}

// FuzzDecodeRequest asserts the request decoder never panics on arbitrary
// input, and that every accepted payload is canonical — re-encoding the
// decoded request reproduces the input bytes exactly.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendFull(nil, []byte("seed"), wireTestFrames(3)))
	f.Add(AppendDelta(nil, []byte("seed"), HashFrames(wireTestFrames(3)), wireTestFrames(1)))
	f.Add([]byte{wireVersion, WireFull, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data, nil)
		if err != nil {
			return
		}
		var re []byte
		switch req.Kind {
		case WireFull:
			re = AppendFull(nil, req.Session, req.Frames)
		case WireDelta:
			re = AppendDelta(nil, req.Session, req.BaseHash, req.Frames)
		default:
			t.Fatalf("decode accepted unknown kind %d", req.Kind)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzDecodeResponse asserts the response decoder never panics.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(AppendResponse(nil, &DecideResponse{
		Decision:  Decision{Behavior: 1, Params: []float64{1, 2}, Attention: [][]float64{{0.5}}},
		RequestID: "seed", BatchSize: 2,
	}))
	f.Add([]byte{wireVersion, wireResponse})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dr DecideResponse
		_ = DecodeResponse(data, &dr)
	})
}

// FuzzObservationJSON decodes arbitrary bytes the way the JSON handler
// does and validates the result at the service's history length. It
// never panics, and every observation Validate accepts has exactly z
// frames, at most MaxVehiclesPerFrame vehicles per frame, finite states
// and no vehicle ID twice in a frame.
func FuzzObservationJSON(f *testing.F) {
	z := sensor.DefaultConfig().Z
	for _, n := range []int{z, z - 1, z + 1} {
		seed, err := json.Marshal(Observation{Frames: wireTestFrames(n)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"frames":[{"av":{"Lat":1,"Lon":1e400,"V":0}}]}`))
	f.Add([]byte(`{"frames":null}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var o Observation
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&o); err != nil {
			return
		}
		if err := o.Validate(z); err != nil {
			return
		}
		if len(o.Frames) != z {
			t.Fatalf("accepted %d frames, want %d", len(o.Frames), z)
		}
		finiteState := func(s world.State) bool {
			return !math.IsNaN(s.Lon) && !math.IsInf(s.Lon, 0) && !math.IsNaN(s.V) && !math.IsInf(s.V, 0)
		}
		for i, fr := range o.Frames {
			if len(fr.Vehicles) > MaxVehiclesPerFrame {
				t.Fatalf("frame %d: accepted %d vehicles", i, len(fr.Vehicles))
			}
			if !finiteState(fr.AV) {
				t.Fatalf("frame %d: accepted AV state %+v", i, fr.AV)
			}
			seen := make(map[int]bool, len(fr.Vehicles))
			for _, v := range fr.Vehicles {
				if !finiteState(v.State) {
					t.Fatalf("frame %d: accepted vehicle %d state %+v", i, v.ID, v.State)
				}
				if seen[v.ID] {
					t.Fatalf("frame %d: accepted vehicle %d twice", i, v.ID)
				}
				seen[v.ID] = true
			}
		}
	})
}

// FuzzSessionAdvance reads the fuzz bytes as a sequence of Store and
// Advance calls on four sessions in a three-entry cache, against a model
// of the cache: each session's base frames and digest, and the LRU order.
// Nothing panics; every failure wraps ErrResync; Advance succeeds exactly
// when the model says the session is cached, the client's digest matches
// and the delta holds 1..len(base) frames. A successful Advance returns
// as many frames as the base held, ending with the delta's frames, and
// the model's next Advance on that session presents their HashFrames.
func FuzzSessionAdvance(f *testing.F) {
	f.Add([]byte{0, 3, 1, 1, 1, 1, 2, 0})
	f.Add([]byte{0, 5, 2, 2, 4, 2, 6, 1, 3, 9, 1, 0, 3, 7, 5, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 3
		sessions := [...]string{"a", "b", "c", "d"}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// frames builds n frames whose contents derive from the next bytes.
		frames := func(n int) []Frame {
			out := make([]Frame, n)
			for i := range out {
				b := next()
				out[i] = Frame{AV: world.State{Lat: int(b%6) + 1, Lon: float64(b), V: float64(b % 30)}}
				for j := 0; j < int(b%3); j++ {
					out[i].Vehicles = append(out[i].Vehicles, Vehicle{ID: j - 1, State: world.State{Lat: j + 1, Lon: float64(b) + 10, V: 1}})
				}
			}
			return out
		}
		cache := NewSessionCache(capacity)
		base := map[string][]Frame{}
		var lru []string // model recency, most recent first
		touch := func(s string) {
			for i, id := range lru {
				if id == s {
					lru = append(lru[:i], lru[i+1:]...)
					break
				}
			}
			lru = append([]string{s}, lru...)
		}
		for len(data) > 0 {
			op := next()
			s := sessions[(op>>1)%4]
			if op&1 == 0 {
				fr := frames(1 + int(next()%6))
				cache.Store(s, fr)
				if _, ok := base[s]; !ok && len(lru) == capacity {
					delete(base, lru[capacity-1])
					lru = lru[:capacity-1]
				}
				base[s] = fr
				touch(s)
				continue
			}
			k := int(next() % 7)
			want, cached := base[s]
			hash := uint64(0)
			if cached {
				hash = HashFrames(want)
			}
			if corrupt := next(); corrupt%4 == 0 {
				hash ^= uint64(corrupt) | 1
			}
			delta := frames(k)
			got, err := cache.Advance(s, hash, delta)
			ok := cached && hash == HashFrames(want) && k >= 1 && k <= len(want)
			if err != nil {
				if !errors.Is(err, ErrResync) {
					t.Fatalf("Advance error %v does not wrap ErrResync", err)
				}
				if ok {
					t.Fatalf("Advance(%q, k=%d) on a %d-frame base failed: %v", s, k, len(want), err)
				}
				continue
			}
			if !ok {
				t.Fatalf("Advance(%q, k=%d) succeeded; the model expected a resync", s, k)
			}
			if len(got) != len(want) {
				t.Fatalf("Advance returned %d frames, base held %d", len(got), len(want))
			}
			if !reflect.DeepEqual(got[len(got)-k:], delta) {
				t.Fatalf("Advance result does not end with the delta's frames")
			}
			base[s] = got
			touch(s)
		}
	})
}
