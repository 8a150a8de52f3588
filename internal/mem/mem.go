// Package mem provides the value and buffer model shared by the host
// interpreter and the simulated accelerator. Host and device memories are
// disjoint sets of buffers; a pointer value names a buffer, an element
// offset, and the memory space it lives in, so host/device aliasing is
// impossible by construction — the property every data-movement test in the
// suite ultimately observes.
package mem

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind enumerates scalar value kinds.
type Kind uint8

const (
	// KInt is a 64-bit signed integer.
	KInt Kind = iota
	// KF32 is a 32-bit float (C float, Fortran real).
	KF32
	// KF64 is a 64-bit float (C double, Fortran double precision).
	KF64
	// KPtr is a pointer into a buffer.
	KPtr
	// KStr is a string (printf formats only).
	KStr
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KF32:
		return "float"
	case KF64:
		return "double"
	case KPtr:
		return "pointer"
	case KStr:
		return "string"
	}
	return "?"
}

// Space identifies a memory space.
type Space uint8

const (
	// Host is host memory.
	Host Space = iota
	// Device is accelerator memory.
	Device
)

// String names the space.
func (s Space) String() string {
	if s == Device {
		return "device"
	}
	return "host"
}

// Value is a scalar runtime value.
type Value struct {
	K Kind
	I int64   // KInt payload; truth value for logicals
	F float64 // KF32/KF64 payload (KF32 is kept rounded to float32)
	S string  // KStr payload
	P Ptr     // KPtr payload
}

// Ptr is a typed pointer: buffer, element offset, and space.
type Ptr struct {
	Buf *Buffer
	Off int
}

// IsNil reports whether the pointer is null.
func (p Ptr) IsNil() bool { return p.Buf == nil }

// Int constructs an integer value.
func Int(v int64) Value { return Value{K: KInt, I: v} }

// F32 constructs a float value (rounded to float32 precision).
func F32(v float64) Value { return Value{K: KF32, F: float64(float32(v))} }

// F64 constructs a double value.
func F64(v float64) Value { return Value{K: KF64, F: v} }

// Str constructs a string value.
func Str(s string) Value { return Value{K: KStr, S: s} }

// PtrVal constructs a pointer value.
func PtrVal(p Ptr) Value { return Value{K: KPtr, P: p} }

// Bool constructs the integer truth value.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// Truth reports the C truth value.
func (v Value) Truth() bool {
	switch v.K {
	case KInt:
		return v.I != 0
	case KF32, KF64:
		return v.F != 0
	case KPtr:
		return !v.P.IsNil()
	}
	return v.S != ""
}

// AsInt converts to int64 (truncating floats, as C does).
func (v Value) AsInt() int64 {
	switch v.K {
	case KInt:
		return v.I
	case KF32, KF64:
		return int64(v.F)
	}
	return 0
}

// AsFloat converts to float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KInt:
		return float64(v.I)
	case KF32, KF64:
		return v.F
	}
	return 0
}

// Convert coerces the value to the given kind, applying C conversion rules.
func (v Value) Convert(k Kind) Value {
	if v.K == k {
		if k == KF32 {
			return F32(v.F)
		}
		return v
	}
	switch k {
	case KInt:
		return Int(v.AsInt())
	case KF32:
		return F32(v.AsFloat())
	case KF64:
		return F64(v.AsFloat())
	}
	return v
}

// String renders the value for diagnostics and printf.
func (v Value) String() string {
	switch v.K {
	case KInt:
		return strconv.FormatInt(v.I, 10)
	case KF32:
		return strconv.FormatFloat(v.F, 'g', -1, 32)
	case KF64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KStr:
		return v.S
	case KPtr:
		if v.P.IsNil() {
			return "nil"
		}
		return fmt.Sprintf("%s+%d", v.P.Buf, v.P.Off)
	}
	return "?"
}

// Equal compares two values numerically (pointers by identity).
func (v Value) Equal(o Value) bool {
	if v.K == KPtr || o.K == KPtr {
		return v.P == o.P
	}
	if v.K == KStr || o.K == KStr {
		return v.S == o.S
	}
	if v.K == KInt && o.K == KInt {
		return v.I == o.I
	}
	return v.AsFloat() == o.AsFloat()
}

// bufSeq allocates buffer IDs.
var bufSeq atomic.Int64

// lockStripes is the number of lock stripes per buffer; element i is
// guarded by stripe i % lockStripes, so concurrent gangs touching different
// elements rarely contend.
const lockStripes = 8

// Buffer is a fixed-length typed array in one memory space. Numeric
// buffers (KInt, KF32, KF64 — every array and scalar the test templates
// declare) store unboxed 64-bit words accessed atomically; the remaining
// kinds store boxed Values under striped locks. Either way, concurrent
// gangs never observe torn values, but read-modify-write sequences are not
// atomic — racing updates lose increments exactly as they would on real
// accelerator hardware, which the cross-test methodology relies on.
type Buffer struct {
	ID    int64
	Elem  Kind
	Space Space
	Name  string // for diagnostics: declared variable name or "acc_malloc"

	// words is the unboxed fast path: the element bit patterns (two's
	// complement for KInt, IEEE-754 for KF32/KF64), loaded and stored with
	// single atomic word operations — no lock, no Value boxing, and still
	// race-detector clean.
	words []uint64

	locks [lockStripes]sync.Mutex
	data  []Value
}

// unboxed reports whether elem uses the word representation.
func unboxed(elem Kind) bool { return elem == KInt || elem == KF32 || elem == KF64 }

// NewBuffer allocates a zero-filled buffer.
func NewBuffer(elem Kind, n int, space Space, name string) *Buffer {
	b := &Buffer{ID: bufSeq.Add(1), Elem: elem, Space: space, Name: name}
	if unboxed(elem) {
		b.words = make([]uint64, n)
		return b
	}
	b.data = make([]Value, n)
	zero := Value{K: elem}
	for i := range b.data {
		b.data[i] = zero
	}
	return b
}

// bits encodes v for an unboxed buffer, applying the same C conversion
// rules Store's boxed path applies through Value.Convert.
func (b *Buffer) bits(v Value) uint64 {
	// Same-kind stores need no conversion for int and double; KF32 always
	// re-rounds, exactly as Value.Convert does.
	if v.K == b.Elem {
		if b.Elem == KInt {
			return uint64(v.I)
		}
		if b.Elem == KF64 {
			return math.Float64bits(v.F)
		}
	}
	switch b.Elem {
	case KInt:
		return uint64(v.AsInt())
	case KF32:
		return math.Float64bits(float64(float32(v.AsFloat())))
	default:
		return math.Float64bits(v.AsFloat())
	}
}

// unbits decodes one stored word back into a Value.
func (b *Buffer) unbits(w uint64) Value {
	if b.Elem == KInt {
		return Value{K: KInt, I: int64(w)}
	}
	return Value{K: b.Elem, F: math.Float64frombits(w)}
}

// WordAt returns the address of element i's unboxed word, or nil for boxed
// buffers (pointer and string elements) and for i outside [0, Len) — the
// cases Load and Store report or dispatch on. The interpreter's VM caches
// scalars' WordAt(0) per frame slot and resolves in-range array subscripts
// through it, skipping Load/Store's bounds check and representation
// dispatch; the word array is allocated once in NewBuffer and never moves,
// so a cached address stays valid for the buffer's lifetime.
func (b *Buffer) WordAt(i int) *uint64 {
	if uint(i) < uint(len(b.words)) {
		return &b.words[i]
	}
	return nil
}

// LoadWord atomically reads the unboxed word at w as a typed value. w must
// come from this buffer's WordAt.
func (b *Buffer) LoadWord(w *uint64) Value {
	return b.unbits(atomic.LoadUint64(w))
}

// LoadWordInto is LoadWord writing straight into dst. Only the kind and the
// matching payload field are written — a scalar's value is fully described
// by those, and skipping the rest of the struct keeps a register-file write
// to two words with no pointer-write barrier.
func (b *Buffer) LoadWordInto(w *uint64, dst *Value) {
	word := atomic.LoadUint64(w)
	if b.Elem == KInt {
		dst.K, dst.I = KInt, int64(word)
		return
	}
	dst.K, dst.F = b.Elem, math.Float64frombits(word)
}

// StoreWord atomically writes v — converted to the element kind, exactly as
// Store converts — into the unboxed word at w.
func (b *Buffer) StoreWord(w *uint64, v Value) {
	atomic.StoreUint64(w, b.bits(v))
}

// NewGarbageBuffer allocates a buffer filled with a deterministic pseudo-
// random pattern, modelling freshly allocated (uninitialized) device memory.
// The Fig. 11 copyout test depends on these contents differing from any
// host-initialized data.
func NewGarbageBuffer(elem Kind, n int, space Space, name string, seed int64) *Buffer {
	b := NewBuffer(elem, n, space, name)
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		bits := state >> 11
		var v Value
		switch elem {
		case KF32:
			v = F32(float64(bits%1000003) * 0.001784)
		case KF64:
			v = F64(float64(bits%1000003) * 0.000913)
		default:
			v = Int(int64(bits % 1000003))
		}
		if b.words != nil {
			b.words[i] = b.bits(v)
		} else {
			b.data[i] = v
		}
	}
	return b
}

// Len returns the element count.
func (b *Buffer) Len() int {
	if b.words != nil {
		return len(b.words)
	}
	return len(b.data)
}

// String renders the buffer identity.
func (b *Buffer) String() string {
	return fmt.Sprintf("%s:%s#%d", b.Space, b.Name, b.ID)
}

// lockAll acquires every stripe (whole-buffer operations).
func (b *Buffer) lockAll() {
	for i := range b.locks {
		b.locks[i].Lock()
	}
}

// unlockAll releases every stripe.
func (b *Buffer) unlockAll() {
	for i := range b.locks {
		b.locks[i].Unlock()
	}
}

// Load returns element i.
func (b *Buffer) Load(i int) (Value, error) {
	if w := b.words; w != nil {
		if uint(i) >= uint(len(w)) {
			return Value{}, fmt.Errorf("index %d out of range [0,%d) in %s", i, len(w), b)
		}
		return b.unbits(atomic.LoadUint64(&w[i])), nil
	}
	if i < 0 || i >= len(b.data) {
		return Value{}, fmt.Errorf("index %d out of range [0,%d) in %s", i, len(b.data), b)
	}
	l := &b.locks[i%lockStripes]
	l.Lock()
	v := b.data[i]
	l.Unlock()
	return v, nil
}

// Store writes element i, coercing to the buffer's element kind.
func (b *Buffer) Store(i int, v Value) error {
	if w := b.words; w != nil {
		if uint(i) >= uint(len(w)) {
			return fmt.Errorf("index %d out of range [0,%d) in %s", i, len(w), b)
		}
		atomic.StoreUint64(&w[i], b.bits(v))
		return nil
	}
	if i < 0 || i >= len(b.data) {
		return fmt.Errorf("index %d out of range [0,%d) in %s", i, len(b.data), b)
	}
	l := &b.locks[i%lockStripes]
	l.Lock()
	b.data[i] = v.Convert(b.Elem)
	l.Unlock()
	return nil
}

// CopyTo copies n elements from b[srcOff] into dst[dstOff]. The element
// kinds must agree; data movement never converts. Boxed source and
// destination are locked one after the other (never nested), so concurrent
// copies in opposite directions cannot deadlock; unboxed buffers move the
// whole word slab at once (bulkCopyWords — a memmove outside race builds),
// preserving per-element untornness without per-word atomics.
func (b *Buffer) CopyTo(srcOff int, dst *Buffer, dstOff, n int) error {
	if srcOff < 0 || srcOff+n > b.Len() {
		return fmt.Errorf("copy source [%d:%d) out of range in %s", srcOff, srcOff+n, b)
	}
	if dstOff < 0 || dstOff+n > dst.Len() {
		return fmt.Errorf("copy destination [%d:%d) out of range in %s", dstOff, dstOff+n, dst)
	}
	if b.words != nil && dst.words != nil && b.Elem == dst.Elem {
		bulkCopyWords(dst.words[dstOff:dstOff+n], b.words[srcOff:srcOff+n])
		return nil
	}
	if b.words == nil && dst.words == nil {
		src := make([]Value, n)
		b.lockAll()
		copy(src, b.data[srcOff:srcOff+n])
		b.unlockAll()
		dst.lockAll()
		copy(dst.data[dstOff:dstOff+n], src)
		dst.unlockAll()
		return nil
	}
	// Mixed representations (mismatched element kinds — outside the data-
	// movement contract, kept as an elementwise fallback).
	for j := 0; j < n; j++ {
		v, err := b.Load(srcOff + j)
		if err != nil {
			return err
		}
		if err := dst.Store(dstOff+j, v); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns a copy of the contents (for tests and reports).
func (b *Buffer) Snapshot() []Value {
	if w := b.words; w != nil {
		out := make([]Value, len(w))
		for i := range w {
			out[i] = b.unbits(atomic.LoadUint64(&w[i]))
		}
		return out
	}
	b.lockAll()
	defer b.unlockAll()
	out := make([]Value, len(b.data))
	copy(out, b.data)
	return out
}

// Fill sets every element to v.
func (b *Buffer) Fill(v Value) {
	if w := b.words; w != nil {
		bits := b.bits(v)
		for i := range w {
			atomic.StoreUint64(&w[i], bits)
		}
		return
	}
	b.lockAll()
	defer b.unlockAll()
	cv := v.Convert(b.Elem)
	for i := range b.data {
		b.data[i] = cv
	}
}

// SizeofBasic returns the simulated byte size of an element kind, used by
// sizeof() and acc_malloc byte arithmetic. acc_malloc sizes its buffer in
// 4-byte words; see the interpreter's cast handling for element retagging.
func SizeofBasic(k Kind) int64 {
	if k == KF64 {
		return 8
	}
	return 4
}

// NearlyEqual reports |a-b| <= eps, the float comparison the reduction
// tests use.
func NearlyEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
