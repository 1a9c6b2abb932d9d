// Package wire is a miniature stand-in for osnt/internal/wire: just enough
// surface (Pool.Get/GetTrain, Frame.Release/Clone, Train.Recycle/Run,
// One, transfer sinks) for the framelease corpus. The analyzers match these by package
// name + type name, exactly as they match the real package.
package wire

// Frame is a pooled packet buffer.
type Frame struct {
	Data []byte
	Size int
	pool *Pool
}

// Release returns the frame to its pool.
func (f *Frame) Release() {}

// Clone returns an unpooled copy.
func (f *Frame) Clone() *Frame { return &Frame{Data: append([]byte(nil), f.Data...)} }

// CopyFrom overwrites f with src's bytes.
func (f *Frame) CopyFrom(src *Frame) {}

// Train is a pooled batch of frames.
type Train struct {
	Frames []*Frame
	pool   *Pool
}

// Release releases every frame and the container.
func (t *Train) Release() {}

// Recycle returns only the container.
func (t *Train) Recycle() {}

// Pool recycles frames and trains.
type Pool struct{}

// Get returns a pooled frame sized to n bytes.
func (p *Pool) Get(n int) *Frame { return &Frame{Data: make([]byte, n), pool: p} }

// GetTrain returns a pooled train container.
func (p *Pool) GetTrain() *Train { return &Train{pool: p} }

// Run is one frame or one train, held by value.
type Run struct {
	f *Frame
	t *Train
}

// One is the run of a single frame.
func One(f *Frame) Run { return Run{f: f} }

// Run hands the train over as a Run.
func (t *Train) Run() Run { return Run{t: t} }

// Link is a transfer sink.
type Link struct{}

// Transmit takes ownership of r.
func (l *Link) Transmit(r Run, earliest int64) int64 { return earliest }
