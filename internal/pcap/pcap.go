// Package pcap reads and writes classic libpcap capture files. Both the
// microsecond (0xa1b2c3d4) and nanosecond (0xa1b23c4d) magics are
// supported in either byte order, which is what the OSNT host tools need:
// replaying arbitrary third-party captures through the generator and
// persisting monitor captures with nanosecond timestamps.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"osnt/internal/sim"
)

// File magics.
const (
	MagicMicro = 0xa1b2c3d4
	MagicNano  = 0xa1b23c4d
)

// LinkTypeEthernet is the only link type the OSNT data path carries.
const LinkTypeEthernet = 1

// Record is one captured packet.
type Record struct {
	// TS is the capture timestamp as virtual time from the epoch.
	TS sim.Time
	// Data holds the captured bytes (possibly snapped short of the
	// original).
	Data []byte
	// OrigLen is the original packet length on the wire (excluding FCS,
	// per libpcap convention).
	OrigLen int
}

// Errors returned by the reader.
var (
	ErrBadMagic  = errors.New("pcap: unrecognised magic number")
	errTruncated = errors.New("pcap: truncated record")
)

// Reader decodes a pcap stream.
type Reader struct {
	r     io.Reader
	order binary.ByteOrder
	nano  bool
	hdr   [16]byte
}

// NewReader parses the global header and returns a reader positioned at
// the first record.
func NewReader(r io.Reader) (*Reader, error) {
	var gh [24]byte
	if _, err := io.ReadFull(r, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	p := &Reader{r: r}
	magicLE := binary.LittleEndian.Uint32(gh[0:4])
	magicBE := binary.BigEndian.Uint32(gh[0:4])
	switch {
	case magicLE == MagicMicro:
		p.order = binary.LittleEndian
	case magicLE == MagicNano:
		p.order, p.nano = binary.LittleEndian, true
	case magicBE == MagicMicro:
		p.order = binary.BigEndian
	case magicBE == MagicNano:
		p.order, p.nano = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	return p, nil
}

// Next returns the next record, or io.EOF at end of stream. The returned
// Data is freshly allocated and owned by the caller.
func (p *Reader) Next() (Record, error) {
	if _, err := io.ReadFull(p.r, p.hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, errTruncated
		}
		return Record{}, err
	}
	sec := p.order.Uint32(p.hdr[0:4])
	frac := p.order.Uint32(p.hdr[4:8])
	capLen := p.order.Uint32(p.hdr[8:12])
	origLen := p.order.Uint32(p.hdr[12:16])
	if capLen > 256*1024 {
		return Record{}, fmt.Errorf("pcap: implausible capture length %d", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(p.r, data); err != nil {
		return Record{}, errTruncated
	}
	var ts sim.Time
	if p.nano {
		ts = sim.After(sim.Duration(sec)*sim.Second + sim.Duration(frac)*sim.Nanosecond)
	} else {
		ts = sim.After(sim.Duration(sec)*sim.Second + sim.Duration(frac)*sim.Microsecond)
	}
	return Record{TS: ts, Data: data, OrigLen: int(origLen)}, nil
}

// ReadAll decodes every record in the stream.
func ReadAll(r io.Reader) ([]Record, error) {
	p, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := p.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// Writer encodes a pcap stream.
type Writer struct {
	w       io.Writer
	nano    bool
	snapLen uint32
	hdr     [16]byte
}

// NewWriter writes a global header for an Ethernet capture and returns the
// writer. nano selects nanosecond timestamp resolution — the natural
// choice for OSNT captures, whose hardware resolution is 6.25 ns.
func NewWriter(w io.Writer, snapLen uint32, nano bool) (*Writer, error) {
	if snapLen == 0 {
		snapLen = 262144
	}
	var gh [24]byte
	magic := uint32(MagicMicro)
	if nano {
		magic = MagicNano
	}
	le := binary.LittleEndian
	le.PutUint32(gh[0:4], magic)
	le.PutUint16(gh[4:6], 2) // version 2.4
	le.PutUint16(gh[6:8], 4)
	le.PutUint32(gh[16:20], snapLen)
	le.PutUint32(gh[20:24], LinkTypeEthernet)
	if _, err := w.Write(gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: global header: %w", err)
	}
	return &Writer{w: w, nano: nano, snapLen: snapLen}, nil
}

// Write appends one record. Data longer than the snap length is truncated
// on write, preserving OrigLen.
func (wr *Writer) Write(rec Record) error {
	data := rec.Data
	if uint32(len(data)) > wr.snapLen {
		data = data[:wr.snapLen]
	}
	ps := rec.TS.Picoseconds()
	sec := uint32(ps / 1_000_000_000_000)
	rem := ps % 1_000_000_000_000
	var frac uint32
	if wr.nano {
		frac = uint32(rem / 1000)
	} else {
		frac = uint32(rem / 1_000_000)
	}
	le := binary.LittleEndian
	le.PutUint32(wr.hdr[0:4], sec)
	le.PutUint32(wr.hdr[4:8], frac)
	le.PutUint32(wr.hdr[8:12], uint32(len(data)))
	le.PutUint32(wr.hdr[12:16], uint32(rec.OrigLen))
	if _, err := wr.w.Write(wr.hdr[:]); err != nil {
		return fmt.Errorf("pcap: record header: %w", err)
	}
	if _, err := wr.w.Write(data); err != nil {
		return fmt.Errorf("pcap: record data: %w", err)
	}
	return nil
}

// WriteCloser is a Writer that buffers its output and owns the stream
// underneath: records cost no write syscall of their own, and Close
// flushes the buffer, then closes the stream, returning the first error
// of the two — so a write-back that fails only at the end is reported,
// not lost.
type WriteCloser struct {
	*Writer
	buf *bufio.Writer
	dst io.WriteCloser
}

// NewWriteCloser writes the global header into a buffer over dst and
// returns the writer (see NewWriter for snapLen and nano). Close must be
// called to flush the buffer into dst.
func NewWriteCloser(dst io.WriteCloser, snapLen uint32, nano bool) (*WriteCloser, error) {
	buf := bufio.NewWriterSize(dst, 64<<10)
	w, err := NewWriter(buf, snapLen, nano)
	if err != nil {
		return nil, err
	}
	return &WriteCloser{Writer: w, buf: buf, dst: dst}, nil
}

// Create creates (or truncates) the named file and returns a buffered
// writer over it; the caller must check Close's error.
func Create(path string, snapLen uint32, nano bool) (*WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pcap: %w", err)
	}
	w, err := NewWriteCloser(f, snapLen, nano)
	if err != nil {
		f.Close() // the header error is the one to report
		return nil, err
	}
	return w, nil
}

// Close flushes buffered records and closes the underlying stream.
func (w *WriteCloser) Close() error {
	err := w.buf.Flush()
	if cerr := w.dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("pcap: close: %w", err)
	}
	return nil
}
