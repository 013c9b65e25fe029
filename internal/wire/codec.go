// Binary codec for the wire protocol.
//
// Every message is framed as [1-byte tag][uvarint body length][body]. The
// hot kinds — Frame, InitialReply, FinalReply, CloudRequest, CloudResponse —
// are hand-encoded: varints for integers, 8-byte little-endian for floats,
// length-prefixed bytes for strings and padding, one flag byte for the
// optional trace context. The low-rate control channel (Control,
// ControlReply) uses the same helpers. Bye is a bare tag with an empty body.
//
// Encode buffers are pooled and written with a single Write per message;
// the receive side reads each body into a per-connection buffer and copies
// out only what the caller keeps, so gob's per-connection type
// dictionaries, reflection walks, and decode-side allocations are gone from
// the hot path.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"croesus/internal/detect"
	"croesus/internal/video"
)

// Wire tags (the 1-byte kind discriminator). Append-only: renumbering is a
// protocol break between binaries. Retired tags stay retired: a message
// carrying one is rejected as unknown, and a new kind takes the next free
// number, not theirs. 6 and 7 were the deleted in-process switch's payload
// and ack; 9 and 10 were the gob-encoded Control and ControlReply.
const (
	tagFrame         byte = 1
	tagInitialReply  byte = 2
	tagFinalReply    byte = 3
	tagCloudRequest  byte = 4
	tagCloudResponse byte = 5
	tagBye           byte = 8
	tagControl       byte = 11
	tagControlReply  byte = 12
)

// maxBody bounds one message body (256 MiB) so a corrupt length prefix
// cannot drive an unbounded allocation.
const maxBody = 1 << 28

// maxHeader is the widest possible frame header: tag + uvarint length.
const maxHeader = 1 + binary.MaxVarintLen64

func tagOf(k Kind) (byte, bool) {
	switch k {
	case KindFrame:
		return tagFrame, true
	case KindInitialReply:
		return tagInitialReply, true
	case KindFinalReply:
		return tagFinalReply, true
	case KindCloudRequest:
		return tagCloudRequest, true
	case KindCloudResponse:
		return tagCloudResponse, true
	case KindBye:
		return tagBye, true
	case KindControl:
		return tagControl, true
	case KindControlReply:
		return tagControlReply, true
	}
	return 0, false
}

// encPool holds encode buffers; each Send borrows one, appends header+body,
// writes once, and returns it.
var encPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// Conn frames Envelopes over a stream using the binary codec. Send is safe
// for concurrent use — an internal mutex serializes writers, so every
// producer on a shared socket (the edge's reply writers) gets a
// whole-message write without its own lock. Recv remains single-reader:
// exactly one goroutine may receive.
type Conn struct {
	sendMu sync.Mutex // serializes whole-message writes
	w      io.Writer
	br     *bufio.Reader
	rwc    io.ReadWriteCloser

	// readBuf holds the current message body; valid until the next receive.
	readBuf []byte
}

// NewConn wraps rwc.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	return &Conn{
		w:   rwc,
		br:  bufio.NewReaderSize(rwc, 32<<10),
		rwc: rwc,
	}
}

// Send validates, encodes, and writes one envelope as a single Write.
func (c *Conn) Send(e *Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	tag, _ := tagOf(e.Kind) // Validate rejected unknown kinds
	bp := encPool.Get().(*[]byte)
	b, err := appendBody((*bp)[:maxHeader], e)
	if err != nil {
		*bp = b[:0]
		encPool.Put(bp)
		return err
	}
	// Lay the header down directly before the body so one Write ships the
	// whole frame.
	var hdr [maxHeader]byte
	hdr[0] = tag
	n := binary.PutUvarint(hdr[1:], uint64(len(b)-maxHeader))
	start := maxHeader - 1 - n
	copy(b[start:], hdr[:1+n])

	c.sendMu.Lock()
	_, werr := c.w.Write(b[start:])
	c.sendMu.Unlock()

	*bp = b[:0]
	encPool.Put(bp)
	return werr
}

// Recv reads and validates one envelope. All returned data is owned by the
// caller: strings, padding, and labels are copied out of the connection's
// read buffer.
func (c *Conn) Recv() (*Envelope, error) {
	tag, body, err := c.readMessage()
	if err != nil {
		return nil, err
	}
	var e Envelope
	if err := decodeBody(&e, tag, body); err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// readMessage reads one frame header and its body into the connection
// buffer. The returned slice is valid until the next readMessage.
func (c *Conn) readMessage() (byte, []byte, error) {
	tag, err := c.br.ReadByte()
	if err != nil {
		return 0, nil, err // io.EOF at a frame boundary is a clean close
	}
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if n > maxBody {
		return 0, nil, fmt.Errorf("wire: message body %d exceeds limit", n)
	}
	if uint64(cap(c.readBuf)) < n {
		c.readBuf = make([]byte, n)
	}
	body := c.readBuf[:n]
	if _, err := io.ReadFull(c.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return tag, body, nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rwc.Close() }

// ---------------------------------------------------------------------------
// Encoding

func appendBody(b []byte, e *Envelope) ([]byte, error) {
	switch e.Kind {
	case KindFrame:
		f := e.Frame
		b = appendVideoFrame(b, &f.Frame)
		b = appendByteSlice(b, f.Padding)
		return appendTrace(b, f.Trace), nil
	case KindInitialReply:
		r := e.InitialReply
		b = binary.AppendVarint(b, int64(r.FrameIndex))
		b = appendDetections(b, r.Labels)
		b = binary.AppendVarint(b, int64(r.Triggered))
		b = binary.AppendVarint(b, int64(r.Aborted))
		b = appendBool(b, r.SentToCloud)
		b = binary.AppendVarint(b, int64(r.EdgeElapsed))
		return appendTrace(b, r.Trace), nil
	case KindFinalReply:
		r := e.FinalReply
		b = binary.AppendVarint(b, int64(r.FrameIndex))
		b = appendDetections(b, r.Labels)
		b = binary.AppendVarint(b, int64(r.Corrections))
		b = binary.AppendUvarint(b, uint64(len(r.Apologies)))
		for _, s := range r.Apologies {
			b = appendString(b, s)
		}
		b = appendBool(b, r.Shed)
		b = binary.AppendVarint(b, int64(r.EdgeElapsed))
		return appendTrace(b, r.Trace), nil
	case KindCloudRequest:
		r := e.CloudRequest
		b = binary.AppendVarint(b, int64(r.FrameIndex))
		b = appendVideoFrame(b, &r.Frame)
		b = appendByteSlice(b, r.Padding)
		b = appendF64(b, r.Margin)
		b = binary.AppendVarint(b, int64(r.Section))
		return appendTrace(b, r.Trace), nil
	case KindCloudResponse:
		r := e.CloudResponse
		b = binary.AppendVarint(b, int64(r.FrameIndex))
		b = appendDetections(b, r.Labels)
		b = binary.AppendVarint(b, int64(r.DetectTime))
		b = appendBool(b, r.Shed)
		return appendTrace(b, r.Trace), nil
	case KindBye:
		return b, nil
	case KindControl:
		c := e.Control
		b = binary.AppendUvarint(b, c.Seq)
		b = appendString(b, c.Op)
		b = appendString(b, c.Path)
		b = appendString(b, c.Addr)
		b = appendBool(b, c.Down)
		return appendF64(b, c.Rate), nil
	case KindControlReply:
		r := e.ControlReply
		b = binary.AppendUvarint(b, r.Seq)
		b = appendBool(b, r.OK)
		b = appendString(b, r.Err)
		return appendByteSlice(b, r.Data), nil
	}
	return b, fmt.Errorf("wire: unknown kind %q", e.Kind)
}

func appendVideoFrame(b []byte, f *video.Frame) []byte {
	b = binary.AppendVarint(b, int64(f.Index))
	b = binary.AppendVarint(b, int64(f.At))
	b = binary.AppendVarint(b, int64(f.Width))
	b = binary.AppendVarint(b, int64(f.Height))
	b = binary.AppendVarint(b, int64(f.SizeBytes))
	b = binary.AppendUvarint(b, uint64(len(f.Objects)))
	for i := range f.Objects {
		o := &f.Objects[i]
		b = binary.AppendVarint(b, int64(o.TrackID))
		b = appendString(b, o.Class)
		b = appendRect(b, o.Box)
		b = appendF64(b, o.Difficulty)
	}
	return b
}

func appendDetections(b []byte, dets []detect.Detection) []byte {
	b = binary.AppendUvarint(b, uint64(len(dets)))
	for i := range dets {
		d := &dets[i]
		b = appendString(b, d.Label)
		b = appendF64(b, d.Confidence)
		b = appendRect(b, d.Box)
		b = binary.AppendVarint(b, int64(d.TrackID))
	}
	return b
}

func appendRect(b []byte, r video.Rect) []byte {
	b = appendF64(b, r.X)
	b = appendF64(b, r.Y)
	b = appendF64(b, r.W)
	return appendF64(b, r.H)
}

func appendTrace(b []byte, t *TraceCtx) []byte {
	if t == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, t.Trace)
	b = binary.AppendUvarint(b, t.Parent)
	return binary.AppendVarint(b, int64(t.Section))
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendByteSlice(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---------------------------------------------------------------------------
// Decoding

var errTruncated = errors.New("wire: truncated message body")

// dec is a cursor over one message body. Every read checks bounds and
// latches the first error, so corrupt input degrades to an error return —
// never a panic or an oversized allocation.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b) {
		d.fail()
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a slice length and bounds it by the bytes remaining (every
// element costs at least one byte), so a corrupt count cannot drive a huge
// make.
func (d *dec) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *dec) str() string {
	b := d.take(int(d.uvarint()))
	if len(b) == 0 {
		return ""
	}
	return string(b)
}

func (d *dec) bool() bool {
	b := d.take(1)
	return len(b) == 1 && b[0] != 0
}

func (d *dec) trace() *TraceCtx {
	b := d.take(1)
	if len(b) != 1 || b[0] == 0 {
		return nil
	}
	t := &TraceCtx{Trace: d.uvarint(), Parent: d.uvarint(), Section: int(d.varint())}
	if d.err != nil {
		return nil
	}
	return t
}

func (d *dec) videoFrame(f *video.Frame) {
	f.Index = int(d.varint())
	f.At = time.Duration(d.varint())
	f.Width = int(d.varint())
	f.Height = int(d.varint())
	f.SizeBytes = int(d.varint())
	if n := d.count(); n > 0 {
		f.Objects = make([]video.Object, n)
		for i := range f.Objects {
			o := &f.Objects[i]
			o.TrackID = int(d.varint())
			o.Class = d.str()
			o.Box = d.rect()
			o.Difficulty = d.f64()
		}
	}
}

func (d *dec) detections() []detect.Detection {
	n := d.count()
	if n == 0 {
		return nil
	}
	dets := make([]detect.Detection, n)
	for i := range dets {
		dt := &dets[i]
		dt.Label = d.str()
		dt.Confidence = d.f64()
		dt.Box = d.rect()
		dt.TrackID = int(d.varint())
	}
	return dets
}

func (d *dec) rect() video.Rect {
	return video.Rect{X: d.f64(), Y: d.f64(), W: d.f64(), H: d.f64()}
}

// byteSlice copies the payload bytes out of the read buffer (Recv: the
// caller owns the result).
func (d *dec) byteSlice() []byte {
	b := d.take(int(d.uvarint()))
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func decodeBody(e *Envelope, tag byte, body []byte) error {
	d := dec{b: body}
	switch tag {
	case tagFrame:
		f := &Frame{}
		d.videoFrame(&f.Frame)
		f.Padding = d.byteSlice()
		f.Trace = d.trace()
		e.Kind, e.Frame = KindFrame, f
	case tagInitialReply:
		r := &InitialReply{}
		r.FrameIndex = int(d.varint())
		r.Labels = d.detections()
		r.Triggered = int(d.varint())
		r.Aborted = int(d.varint())
		r.SentToCloud = d.bool()
		r.EdgeElapsed = time.Duration(d.varint())
		r.Trace = d.trace()
		e.Kind, e.InitialReply = KindInitialReply, r
	case tagFinalReply:
		r := &FinalReply{}
		r.FrameIndex = int(d.varint())
		r.Labels = d.detections()
		r.Corrections = int(d.varint())
		if n := d.count(); n > 0 {
			r.Apologies = make([]string, n)
			for i := range r.Apologies {
				r.Apologies[i] = d.str()
			}
		}
		r.Shed = d.bool()
		r.EdgeElapsed = time.Duration(d.varint())
		r.Trace = d.trace()
		e.Kind, e.FinalReply = KindFinalReply, r
	case tagCloudRequest:
		r := &CloudRequest{}
		r.FrameIndex = int(d.varint())
		d.videoFrame(&r.Frame)
		r.Padding = d.byteSlice()
		r.Margin = d.f64()
		r.Section = int(d.varint())
		r.Trace = d.trace()
		e.Kind, e.CloudRequest = KindCloudRequest, r
	case tagCloudResponse:
		r := &CloudResponse{}
		r.FrameIndex = int(d.varint())
		r.Labels = d.detections()
		r.DetectTime = time.Duration(d.varint())
		r.Shed = d.bool()
		r.Trace = d.trace()
		e.Kind, e.CloudResponse = KindCloudResponse, r
	case tagBye:
		e.Kind = KindBye
	case tagControl:
		c := &Control{}
		c.Seq = d.uvarint()
		c.Op = d.str()
		c.Path = d.str()
		c.Addr = d.str()
		c.Down = d.bool()
		c.Rate = d.f64()
		e.Kind, e.Control = KindControl, c
	case tagControlReply:
		r := &ControlReply{}
		r.Seq = d.uvarint()
		r.OK = d.bool()
		r.Err = d.str()
		r.Data = d.byteSlice() // empty decodes as nil, gob's convention (TestCodecMatchesGob)
		e.Kind, e.ControlReply = KindControlReply, r
	default:
		return fmt.Errorf("wire: unknown tag %d", tag)
	}
	return d.err
}
