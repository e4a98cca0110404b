// Package image defines the loadable domain image format: the stand-in
// for libtyche's "ELF binary + manifest" (§4.2: "the library loads an
// ELF binary as a domain using a manifest that describes which segments
// should run in which privilege ring, whether they are shared or
// confidential, and if their content is part of the attestation or
// not").
//
// An Image is a named list of segments with per-segment policy. Layout
// against a base address is deterministic, so the measurement a domain
// will have once loaded and sealed can be computed offline (the
// tyche-hash tool) and compared against the monitor's attestation.
package image

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/codec"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// Magic identifies serialized images ("TYCI" little-endian), after the
// format version.
const Magic = uint32(0x49435954)

// FormatVersion is the serialization version, the encoding's first
// byte. Version 1 began with the magic, so its images fail with
// codec.ErrVersion.
const FormatVersion = 2

// Segment is one loadable unit with its isolation policy.
type Segment struct {
	// Name labels the segment (".text", ".data", "shared-buf", ...).
	Name string
	// Data is the initial content; the segment occupies max(len(Data),
	// Size) bytes, zero-filled beyond Data (BSS-style).
	Data []byte
	// Size optionally extends the segment beyond its content.
	Size uint64
	// Rights are the memory rights the domain receives (subset of RWX).
	Rights cap.Rights
	// Ring selects which privilege ring inside the domain may touch the
	// segment (kernel-only segments are hidden from ring 3 by the
	// domain's first-level filter).
	Ring hw.Ring
	// Confidential segments are granted exclusively (refcount 1);
	// non-confidential segments are shared with the creator.
	Confidential bool
	// Measured segments' content is part of the seal-time measurement.
	Measured bool
}

// ByteSize returns the segment's occupied size before page rounding.
func (s *Segment) ByteSize() uint64 {
	if s.Size > uint64(len(s.Data)) {
		return s.Size
	}
	return uint64(len(s.Data))
}

// PageSize returns the page-rounded size the segment occupies in memory.
func (s *Segment) PageSize() uint64 {
	n := s.ByteSize()
	return (n + phys.PageSize - 1) &^ (phys.PageSize - 1)
}

// Validate checks the segment's internal consistency.
func (s *Segment) Validate() error {
	if s.Name == "" {
		return errors.New("image: segment without a name")
	}
	if s.ByteSize() == 0 {
		return fmt.Errorf("image: segment %q is empty", s.Name)
	}
	if !s.Rights.Subset(cap.MemRWX) {
		return fmt.Errorf("image: segment %q has non-memory rights %v", s.Name, s.Rights)
	}
	if s.Rights == cap.RightsNone {
		return fmt.Errorf("image: segment %q has no rights", s.Name)
	}
	return nil
}

// Image is a loadable domain: segments plus the entry point, expressed
// as an offset into a named segment so it survives relocation.
type Image struct {
	// Name labels the image (becomes the domain name by default).
	Name string
	// EntrySegment names the segment containing the entry point.
	EntrySegment string
	// EntryOffset is the entry's byte offset within that segment.
	EntryOffset uint64
	// Segments in load order.
	Segments []Segment
}

// Validate checks the image: named entry segment exists, entry lands
// inside it, segment names unique, segments valid.
func (img *Image) Validate() error {
	if img.Name == "" {
		return errors.New("image: image without a name")
	}
	if len(img.Segments) == 0 {
		return fmt.Errorf("image: %q has no segments", img.Name)
	}
	seen := make(map[string]bool)
	foundEntry := false
	for i := range img.Segments {
		s := &img.Segments[i]
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("image: duplicate segment %q", s.Name)
		}
		seen[s.Name] = true
		if s.Name == img.EntrySegment {
			foundEntry = true
			if img.EntryOffset >= s.ByteSize() {
				return fmt.Errorf("image: entry offset %#x beyond segment %q", img.EntryOffset, s.Name)
			}
			if !s.Rights.Has(cap.RightExec) {
				return fmt.Errorf("image: entry segment %q not executable", s.Name)
			}
		}
	}
	if !foundEntry {
		return fmt.Errorf("image: entry segment %q not found", img.EntrySegment)
	}
	return nil
}

// Segment returns the named segment, or nil.
func (img *Image) Segment(name string) *Segment {
	for i := range img.Segments {
		if img.Segments[i].Name == name {
			return &img.Segments[i]
		}
	}
	return nil
}

// TotalPages returns the image's page footprint when loaded.
func (img *Image) TotalPages() uint64 {
	var n uint64
	for i := range img.Segments {
		n += img.Segments[i].PageSize() / phys.PageSize
	}
	return n
}

// Placement locates one segment in physical memory after layout.
type Placement struct {
	Segment *Segment
	Region  phys.Region
}

// Layout places the image's segments contiguously starting at base
// (page-aligned), in declaration order, each segment page-aligned.
func (img *Image) Layout(base phys.Addr) ([]Placement, error) {
	if !base.PageAligned() {
		return nil, fmt.Errorf("image: load base %v not page-aligned", base)
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	var out []Placement
	at := base
	for i := range img.Segments {
		s := &img.Segments[i]
		r := phys.MakeRegion(at, s.PageSize())
		out = append(out, Placement{Segment: s, Region: r})
		at = r.End
	}
	return out, nil
}

// Entry resolves the entry point for a layout at base.
func (img *Image) Entry(base phys.Addr) (phys.Addr, error) {
	pls, err := img.Layout(base)
	if err != nil {
		return 0, err
	}
	for _, p := range pls {
		if p.Segment.Name == img.EntrySegment {
			return p.Region.Start + phys.Addr(img.EntryOffset), nil
		}
	}
	return 0, fmt.Errorf("image: entry segment %q not placed", img.EntrySegment)
}

// Measurement predicts, offline, the measurement the monitor computes
// when the image is loaded at base and sealed: entry point plus the
// content of every measured segment (zero-padded to its page footprint,
// exactly as loaded). This is the tyche-hash path (§4.2).
func (img *Image) Measurement(base phys.Addr) (tpm.Digest, error) {
	pls, err := img.Layout(base)
	if err != nil {
		return tpm.Digest{}, err
	}
	entry, err := img.Entry(base)
	if err != nil {
		return tpm.Digest{}, err
	}
	var regions []core.MeasuredRegion
	for _, p := range pls {
		if !p.Segment.Measured {
			continue
		}
		content := make([]byte, p.Region.Size())
		copy(content, p.Segment.Data)
		regions = append(regions, core.MeasuredRegion{Region: p.Region, Content: content})
	}
	// The monitor normalizes measured regions by address; layout
	// already emits them in address order.
	return core.ComputeMeasurement(entry, regions), nil
}

// Encode serializes the image (package codec): the format version, the
// magic, the header, then the segments.
func (img *Image) Encode() ([]byte, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	w := codec.Writer{}
	w.U8(FormatVersion)
	w.U32(Magic)
	w.Str(img.Name)
	w.Str(img.EntrySegment)
	w.U64(img.EntryOffset)
	w.U64(uint64(len(img.Segments)))
	for i := range img.Segments {
		s := &img.Segments[i]
		w.Str(s.Name)
		w.Blob(s.Data)
		w.U64(s.Size)
		w.U16(uint16(s.Rights))
		w.U8(uint8(s.Ring))
		w.Bool(s.Confidential)
		w.Bool(s.Measured)
	}
	return w.Buf, nil
}

// segmentMin is the smallest encoding of a segment.
const segmentMin = 8 + 8 + 8 + 2 + 1 + 1 + 1

// Decode parses Encode's bytes, refusing any other byte string — another
// format version, a length past the end, a bool byte other than 0 or 1,
// trailing bytes — with one of package codec's errors, and an invalid
// image with Validate's. Segment contents are copied out of data.
func Decode(data []byte) (*Image, error) {
	r := codec.NewReader(data, FormatVersion)
	magic := r.U32()
	img := &Image{Name: r.Str(), EntrySegment: r.Str(), EntryOffset: r.U64()}
	img.Segments = codec.List(r, segmentMin, func() Segment {
		return Segment{Name: r.Str(), Data: bytes.Clone(r.Blob()), Size: r.U64(), Rights: cap.Rights(r.U16()),
			Ring: hw.Ring(r.U8()), Confidential: r.Bool(), Measured: r.Bool()}
	})
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("image: bad magic %#x", magic)
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}
