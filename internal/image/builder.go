package image

import (
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
)

// NewProgram builds the common image shape: one confidential, measured,
// executable ".text" segment containing code, entered at offset 0.
// Further segments chain on with the With* builders.
func NewProgram(name string, code []byte) *Image {
	return &Image{
		Name:         name,
		EntrySegment: ".text",
		Segments: []Segment{{
			Name:         ".text",
			Data:         code,
			Rights:       cap.MemRX,
			Ring:         hw.RingKernel,
			Confidential: true,
			Measured:     true,
		}},
	}
}

// WithData appends a confidential, measured read-write data segment.
func (img *Image) WithData(name string, data []byte) *Image {
	img.Segments = append(img.Segments, Segment{
		Name:         name,
		Data:         data,
		Rights:       cap.MemRW,
		Ring:         hw.RingKernel,
		Confidential: true,
		Measured:     true,
	})
	return img
}

// WithBSS appends a confidential, unmeasured zeroed segment of size
// bytes (scratch memory whose content is not part of the identity).
func (img *Image) WithBSS(name string, size uint64) *Image {
	img.Segments = append(img.Segments, Segment{
		Name:         name,
		Size:         size,
		Rights:       cap.MemRW,
		Ring:         hw.RingKernel,
		Confidential: true,
		Measured:     false,
	})
	return img
}

// WithHeap appends a confidential, unmeasured RWX segment of size
// bytes: memory the domain subdivides itself, e.g. to load nested
// enclaves from (nested code must execute, so the heap carries exec).
func (img *Image) WithHeap(name string, size uint64) *Image {
	img.Segments = append(img.Segments, Segment{
		Name:         name,
		Size:         size,
		Rights:       cap.MemRWX,
		Ring:         hw.RingKernel,
		Confidential: true,
		Measured:     false,
	})
	return img
}

// WithShared appends a non-confidential read-write segment of size
// bytes: it is shared with the creator (refcount 2), forming the
// domain's explicit communication surface (§4.2: Tyche-enclaves
// "require untrusted memory regions to be explicitly shared").
func (img *Image) WithShared(name string, size uint64) *Image {
	img.Segments = append(img.Segments, Segment{
		Name:   name,
		Size:   size,
		Rights: cap.MemRW,
		Ring:   hw.RingKernel,
	})
	return img
}
