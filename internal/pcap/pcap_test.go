package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"osnt/internal/sim"
)

func mkRecord(ts sim.Time, n int) Record {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i)
	}
	return Record{TS: ts, Data: d, OrigLen: n}
}

func TestRoundTripNano(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		mkRecord(0, 64),
		mkRecord(sim.Time(1_234_567_891)*sim.Time(sim.Nanosecond), 128),
		mkRecord(2*sim.Time(sim.Second)+sim.Time(42*sim.Nanosecond), 1514),
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range recs {
		if got[i].TS != recs[i].TS {
			t.Errorf("rec %d ts = %v, want %v", i, got[i].TS, recs[i].TS)
		}
		if !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Errorf("rec %d data mismatch", i)
		}
		if got[i].OrigLen != recs[i].OrigLen {
			t.Errorf("rec %d origlen = %d", i, got[i].OrigLen)
		}
	}
}

func TestRoundTripMicroTruncatesTimestamps(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, false)
	ts := sim.Time(1_500_000)*sim.Time(sim.Microsecond) + 999*sim.Time(sim.Nanosecond)
	if err := w.Write(mkRecord(ts, 60)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1_500_000) * sim.Time(sim.Microsecond) // ns part dropped
	if got[0].TS != want {
		t.Fatalf("ts = %v, want %v", got[0].TS, want)
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 96, true)
	if err := w.Write(mkRecord(0, 1514)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Data) != 96 {
		t.Fatalf("capLen = %d, want 96", len(got[0].Data))
	}
	if got[0].OrigLen != 1514 {
		t.Fatalf("origLen = %d, want 1514", got[0].OrigLen)
	}
}

// The global header carries what other pcap readers need: the
// nanosecond magic, the snap length and the Ethernet link type.
func TestReaderHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	_, _ = NewWriter(&buf, 2048, true)
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	gh := buf.Bytes()
	magic, snap, link := binary.LittleEndian.Uint32(gh[0:4]), binary.LittleEndian.Uint32(gh[16:20]), binary.LittleEndian.Uint32(gh[20:24])
	if magic != MagicNano || snap != 2048 || link != LinkTypeEthernet {
		t.Fatalf("header: magic=%#x snap=%d link=%d", magic, snap, link)
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian microsecond file with one 4-byte packet.
	var buf bytes.Buffer
	be := binary.BigEndian
	gh := make([]byte, 24)
	be.PutUint32(gh[0:4], MagicMicro)
	be.PutUint16(gh[4:6], 2)
	be.PutUint16(gh[6:8], 4)
	be.PutUint32(gh[16:20], 65535)
	be.PutUint32(gh[20:24], LinkTypeEthernet)
	buf.Write(gh)
	rh := make([]byte, 16)
	be.PutUint32(rh[0:4], 7)    // 7 s
	be.PutUint32(rh[4:8], 500)  // 500 µs
	be.PutUint32(rh[8:12], 4)   // capLen
	be.PutUint32(rh[12:16], 60) // origLen
	buf.Write(rh)
	buf.Write([]byte{1, 2, 3, 4})

	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := 7*sim.Time(sim.Second) + 500*sim.Time(sim.Microsecond)
	if got[0].TS != want || got[0].OrigLen != 60 || !bytes.Equal(got[0].Data, []byte{1, 2, 3, 4}) {
		t.Fatalf("big-endian record: %+v", got[0])
	}
}

func TestBadMagic(t *testing.T) {
	junk := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(junk)); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0, true)
	_ = w.Write(mkRecord(0, 64))
	full := buf.Bytes()

	// Cut inside the record data.
	r, err := NewReader(bytes.NewReader(full[:len(full)-10]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated data: err = %v, want truncation error", err)
	}

	// Cut inside the record header.
	r, _ = NewReader(bytes.NewReader(full[:24+8]))
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated header: err = %v", err)
	}

	// Exactly at record boundary: clean EOF.
	r, _ = NewReader(bytes.NewReader(full[:24]))
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty body: err = %v, want io.EOF", err)
	}
}

func TestImplausibleCapLen(t *testing.T) {
	var buf bytes.Buffer
	_, _ = NewWriter(&buf, 0, true)
	rh := make([]byte, 16)
	binary.LittleEndian.PutUint32(rh[8:12], 1<<30)
	buf.Write(rh)
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.Next(); err == nil {
		t.Fatal("accepted 1GiB capture length")
	}
}

// Property: any batch of records with ns-aligned timestamps round trips
// exactly through the nanosecond format.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(lens []uint16, tsns []uint32) bool {
		if len(lens) > 50 {
			lens = lens[:50]
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, 0, true)
		if err != nil {
			return false
		}
		var recs []Record
		for i, l := range lens {
			n := int(l%2000) + 1
			var ts sim.Time
			if i < len(tsns) {
				ts = sim.Time(tsns[i]) * sim.Time(sim.Nanosecond)
			}
			r := mkRecord(ts, n)
			recs = append(recs, r)
			if err := w.Write(r); err != nil {
				return false
			}
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i].TS != recs[i].TS || !bytes.Equal(got[i].Data, recs[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteRead(b *testing.B) {
	rec := mkRecord(12345678, 512)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w, _ := NewWriter(&buf, 0, true)
		_ = w.Write(rec)
		if _, err := ReadAll(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCreateRoundTrip: records written through the buffered file writer
// are all on disk once Close returns.
func TestCreateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cap.pcap")
	w, err := Create(path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 1000; i++ { // well past one buffer's worth
		recs = append(recs, mkRecord(sim.Time(i)*sim.Time(sim.Microsecond), 64+i%1400))
		if err := w.Write(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read back %d of %d records", len(got), len(recs))
	}
	for i := range recs {
		if got[i].TS != recs[i].TS || got[i].OrigLen != recs[i].OrigLen || !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Fatalf("record %d did not round-trip", i)
		}
	}
}

var errWrite = errors.New("device full")

// failWriter fails every write with errWrite.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// stream is a write stream whose close fails with closeErr.
type stream struct {
	io.Writer
	closeErr error
}

func (s stream) Close() error { return s.closeErr }

// TestWriteCloserReportsStreamErrors: a write-back that fails only when
// the buffer drains, or a failing close, comes back from Close.
func TestWriteCloserReportsStreamErrors(t *testing.T) {
	errClose := errors.New("close failed")
	for _, tc := range []struct {
		name string
		dst  io.WriteCloser
		want error
	}{
		{"flush", stream{failWriter{}, nil}, errWrite},
		{"flush before close", stream{failWriter{}, errClose}, errWrite},
		{"close", stream{io.Discard, errClose}, errClose},
	} {
		w, err := NewWriteCloser(tc.dst, 0, true)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := w.Write(mkRecord(0, 64)); err != nil {
			t.Fatalf("%s: buffered write failed early: %v", tc.name, err)
		}
		if err := w.Close(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Close = %v, want %v", tc.name, err, tc.want)
		}
	}
}
