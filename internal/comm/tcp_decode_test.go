package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// FuzzPayloadFrame feeds arbitrary bytes to the data-frame decoder as a
// frame body (everything after the type byte). The decoder must never
// panic, must never check out more than its ceiling — an oversized header
// is rejected before any buffer is taken — and whatever it accepts must
// re-encode to exactly the bytes it consumed. Independently, the same
// bytes read as a payload must survive Send's encoding and the decoder
// bit for bit, NaN payloads included, with empty sides decoding to nil.
func FuzzPayloadFrame(f *testing.F) {
	frame := encodeDataFrame(nil, Payload{
		Floats: []float64{1.5, math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Inf(-1), math.Copysign(0, -1)},
		Ints:   []int{-1, 42, math.MaxInt64, math.MinInt64},
	}, maxFrameWords)
	body := frame[1:]
	f.Add(body)
	f.Add(body[:len(body)-3])                                        // truncated mid-word
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0}) // oversized header
	f.Add([]byte{})
	// A small ceiling keeps accepted frames cheap, and a 64-byte scratch
	// buffer reaches the multi-chunk paths with small inputs.
	const limit = 1 << 12
	decoder := func(b []byte, peer, limit int) (*frameDecoder, *bytes.Reader) {
		r := bytes.NewReader(b)
		return &frameDecoder{r: r, peer: peer, limit: limit, scratch: make([]byte, 64)}, r
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		arena := newBufPool()
		d, r := decoder(body, 3, limit)
		p, err := d.decode(arena)
		if words := checkedOutWords(arena); words > limit {
			t.Fatalf("decoder checked out %d words, ceiling %d", words, limit)
		}
		if err == nil {
			consumed := body[:len(body)-r.Len()]
			if re := encodeDataFrame(nil, p, limit)[1:]; !bytes.Equal(re, consumed) {
				t.Fatalf("decoded payload re-encodes to %d bytes that differ from the %d consumed", len(re), len(consumed))
			}
		} else if err != io.EOF && err != io.ErrUnexpectedEOF && !strings.Contains(err.Error(), "from rank 3") {
			t.Fatalf("rejection does not name the peer: %v", err)
		}

		want := payloadFromBytes(body)
		enc := encodeDataFrame(nil, want, maxFrameWords)
		for _, pool := range []*bufPool{nil, newBufPool()} {
			d, _ := decoder(enc[1:], 0, maxFrameWords)
			got, err := d.decode(pool)
			if err != nil {
				t.Fatalf("decoding an encoded payload: %v", err)
			}
			assertSameBits(t, got, want)
		}
	})
}

// checkedOutWords sums the lengths of every buffer arena has handed out.
func checkedOutWords(arena *bufPool) int {
	n := 0
	for _, b := range arena.usedF {
		n += len(b)
	}
	for _, b := range arena.usedI {
		n += len(b)
	}
	return n
}

// payloadFromBytes reads b as 8-byte words, the first b[0] mod (words+1)
// of them floats and the rest ints. An empty side is nil for even-length
// input and a non-nil empty slice for odd-length input, so both encode.
func payloadFromBytes(b []byte) Payload {
	words := len(b) / 8
	split := 0
	if len(b) > 0 {
		split = int(b[0]) % (words + 1)
	}
	var p Payload
	if len(b)%2 == 1 {
		p.Floats, p.Ints = []float64{}, []int{}
	}
	for i := 0; i < words; i++ {
		w := binary.LittleEndian.Uint64(b[8*i:])
		if i < split {
			p.Floats = append(p.Floats, math.Float64frombits(w))
		} else {
			p.Ints = append(p.Ints, int(int64(w)))
		}
	}
	return p
}

// assertSameBits checks got against want word for word, and that each
// side of got is nil exactly when it is empty.
func assertSameBits(t *testing.T, got, want Payload) {
	t.Helper()
	if len(got.Floats) != len(want.Floats) || len(got.Ints) != len(want.Ints) {
		t.Fatalf("decoded %d floats + %d ints, sent %d + %d", len(got.Floats), len(got.Ints), len(want.Floats), len(want.Ints))
	}
	if (got.Floats == nil) != (len(got.Floats) == 0) || (got.Ints == nil) != (len(got.Ints) == 0) {
		t.Fatalf("empty side not decoded as nil (or non-empty as nil): %#v", got)
	}
	for i := range want.Floats {
		if math.Float64bits(got.Floats[i]) != math.Float64bits(want.Floats[i]) {
			t.Fatalf("float %d: bits %#x, sent %#x", i, math.Float64bits(got.Floats[i]), math.Float64bits(want.Floats[i]))
		}
	}
	for i := range want.Ints {
		if got.Ints[i] != want.Ints[i] {
			t.Fatalf("int %d: %d, sent %d", i, got.Ints[i], want.Ints[i])
		}
	}
}

// TestDecodeSpansChunks: a frame larger than the decode scratch buffer
// (floats and ints each crossing several chunk boundaries) decodes bit
// for bit.
func TestDecodeSpansChunks(t *testing.T) {
	n := 3*decodeChunk/8 + 5
	want := Payload{Floats: make([]float64, n), Ints: make([]int, n+1)}
	for i := range want.Floats {
		want.Floats[i] = math.Float64frombits(uint64(i)*0x9e3779b97f4a7c15 | 0x7ff0000000000001)
	}
	for i := range want.Ints {
		want.Ints[i] = -i * 7919
	}
	enc := encodeDataFrame(nil, want, maxFrameWords)
	got, err := newFrameDecoder(bytes.NewReader(enc[1:]), 0).decode(newBufPool())
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, got, want)
}

// TestEncodeRejectsOversizedPayload: encoding refuses a payload over the
// ceiling instead of emitting a frame the peer would reject.
func TestEncodeRejectsOversizedPayload(t *testing.T) {
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "3 floats + 2 ints exceeds the 4-word frame limit") {
			t.Fatalf("recovered %v; want the frame-limit panic", r)
		}
	}()
	encodeDataFrame(nil, Payload{Floats: make([]float64, 3), Ints: make([]int, 2)}, 4)
}

// TestTCPOversizedFrameRejected: a data header claiming more than
// maxFrameWords words is rejected before anything is allocated, and the
// next Recv from that peer fails with a *PeerError naming it and the
// claimed counts.
func TestTCPOversizedFrameRejected(t *testing.T) {
	trs := dialWorld(t, 2, TCPOptions{})
	hdr := []byte{frameData, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0}
	if err := trs[0].writeFrame(1, hdr); err != nil {
		t.Fatal(err)
	}
	pe := recoverPeerError(t, func() { trs[1].Recv(0) })
	if pe.Peer != 0 || pe.Rank != 1 || pe.Aborted {
		t.Fatalf("PeerError %+v; want a failure of peer 0 seen by rank 1", pe)
	}
	if !strings.Contains(pe.Error(), "from rank 0 claims 4294967295 floats + 1 ints") {
		t.Fatalf("error does not name the peer and counts: %v", pe)
	}
}

// arenaSizes are one epoch's payload sizes; repeats share a capacity
// class, so aliasing between same-class buffers would show.
var arenaSizes = []int{1, 7, 64, 7, 300, 1, 64}

// sendRecvEpoch sends one epoch of distinct payloads from trs[0] to trs[1],
// receives them all, and checks every one still holds what was sent — two
// payloads sharing memory would have overwritten each other.
func sendRecvEpoch(t *testing.T, trs []*TCPTransport, epoch int) []Payload {
	t.Helper()
	mk := func(i, n int) Payload {
		p := Payload{Floats: make([]float64, n), Ints: make([]int, n)}
		for k := range p.Floats {
			p.Floats[k] = float64(epoch*1e6 + i*1e3 + k)
			p.Ints[k] = -(epoch*1e6 + i*1e3 + k)
		}
		return p
	}
	for i, n := range arenaSizes {
		trs[0].Send(1, mk(i, n))
	}
	got := make([]Payload, len(arenaSizes))
	for i := range got {
		got[i] = trs[1].Recv(0)
	}
	for i, n := range arenaSizes {
		assertSameBits(t, got[i], mk(i, n))
	}
	return got
}

// backing returns the addresses of every payload's backing arrays.
func backing(ps []Payload) []any {
	var out []any
	for _, p := range ps {
		out = append(out, &p.Floats[0], &p.Ints[0])
	}
	return out
}

// TestTCPReceiveArena pins the receive arena's lifetime rules: payloads
// received within an epoch never alias each other; once the transport has
// been ticked, the next epoch decodes into the previous epoch's buffers;
// and a transport that is never ticked hands out fresh buffers and keeps
// none of them.
func TestTCPReceiveArena(t *testing.T) {
	t.Run("ticked", func(t *testing.T) {
		trs := dialWorld(t, 2, TCPOptions{})
		trs[1].EpochTick() // first tick: pooling on
		first := backing(sendRecvEpoch(t, trs, 1))
		trs[1].EpochTick()
		second := backing(sendRecvEpoch(t, trs, 2))
		reused := make(map[any]bool)
		for _, a := range first {
			reused[a] = true
		}
		for i, a := range second {
			if !reused[a] {
				t.Fatalf("buffer %d of the second epoch is not one of the first epoch's: pooling is off", i)
			}
		}
	})
	t.Run("never ticked", func(t *testing.T) {
		trs := dialWorld(t, 2, TCPOptions{})
		first := sendRecvEpoch(t, trs, 1)
		second := sendRecvEpoch(t, trs, 2)
		seen := make(map[any]bool)
		for i, a := range backing(append(first, second...)) {
			if seen[a] {
				t.Fatalf("buffer %d reused without a tick", i)
			}
			seen[a] = true
		}
		for i, n := range arenaSizes { // the first epoch's payloads are untouched
			if first[i].Floats[n-1] != float64(1e6+i*1e3+n-1) {
				t.Fatalf("first-epoch payload %d overwritten", i)
			}
		}
		a := trs[1].arena
		if len(a.usedF)+len(a.usedI)+len(a.freeF)+len(a.freeI) != 0 {
			t.Fatal("an unticked transport retained receive buffers")
		}
	})
}

// peersFrame encodes addrs as the coordinator's peers frame.
func peersFrame(t testing.TB, addrs ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writePeersFrame(&buf, addrs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPeersFrame pins the peers-frame decoder's accept and reject cases:
// a fixed world must match the announced count, an adopting rank (world 0)
// must fall inside it, and every truncation is an error.
func TestPeersFrame(t *testing.T) {
	addrs := []string{"127.0.0.1:4000", "127.0.0.1:4001", "[::1]:4002"}
	frame := peersFrame(t, addrs...)
	for _, world := range []int{0, 3} {
		got, err := readPeersFrame(bytes.NewReader(frame), 2, world)
		if err != nil {
			t.Fatalf("world %d: %v", world, err)
		}
		if strings.Join(got, ",") != strings.Join(addrs, ",") {
			t.Fatalf("world %d: table %q, want %q", world, got, addrs)
		}
	}
	rejects := map[string]struct {
		frame       []byte
		rank, world int
	}{
		"world mismatch":    {frame, 0, 4},
		"rank outside":      {frame, 3, 0},
		"empty world":       {peersFrame(t), 0, 0},
		"wrong frame type":  {append([]byte{frameHello}, frame[1:]...), 0, 0},
		"no frame":          {nil, 0, 0},
		"short count":       {frame[:3], 0, 0},
		"truncated table":   {frame[:len(frame)-1], 0, 0},
		"missing last addr": {frame[:len(frame)-len(addrs[2])-2], 0, 3},
	}
	for name, tc := range rejects {
		if got, err := readPeersFrame(bytes.NewReader(tc.frame), tc.rank, tc.world); err == nil {
			t.Errorf("%s: accepted %q", name, got)
		}
	}
}

// TestPeersFrameHugeCount: a peers frame that announces 2³²−1 ranks and
// then ends must fail at once, having allocated no more than the entries it
// delivered — not a table sized by the announced count (≈64 GiB).
func TestPeersFrameHugeCount(t *testing.T) {
	frame := []byte{framePeers, 0xff, 0xff, 0xff, 0xff}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := readPeersFrame(bytes.NewReader(frame), 0, 0)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("want an EOF error, got %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding a 5-byte frame allocated %d bytes", alloc)
	}
	if elapsed > time.Second {
		t.Fatalf("decoding a 5-byte frame took %v", elapsed)
	}
}

// FuzzPeersFrame feeds arbitrary bytes to the peers-frame decoder, for a
// rank that adopts the announced world (world 0) and for one that fixes
// it. The decoder must never panic, and a table it accepts has exactly the
// announced length and re-encodes to the bytes it consumed. The seed
// corpus (testdata/fuzz/FuzzPeersFrame) holds a valid table, a truncated
// one and a 2³²−1 count.
func FuzzPeersFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte, world uint8) {
		r := bytes.NewReader(frame)
		peers, err := readPeersFrame(r, 0, int(world))
		if err != nil {
			return
		}
		if announced := int(binary.LittleEndian.Uint32(frame[1:5])); len(peers) != announced {
			t.Fatalf("accepted %d entries, frame announced %d", len(peers), announced)
		}
		if world != 0 && len(peers) != int(world) {
			t.Fatalf("accepted %d entries for world %d", len(peers), world)
		}
		consumed := frame[:len(frame)-r.Len()]
		if re := peersFrame(t, peers...); !bytes.Equal(re, consumed) {
			t.Fatalf("table re-encodes to %x, consumed %x", re, consumed)
		}
	})
}
