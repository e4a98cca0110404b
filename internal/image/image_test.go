package image

import (
	"bytes"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

func sampleCode() []byte {
	a := hw.NewAsm()
	a.Movi(1, 42).Hlt()
	return a.MustAssemble(0)
}

func sampleImage() *Image {
	return NewProgram("sample", sampleCode()).
		WithData(".data", []byte{1, 2, 3, 4}).
		WithBSS(".bss", 2*phys.PageSize).
		WithShared("io", phys.PageSize)
}

func TestValidate(t *testing.T) {
	img := sampleImage()
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Image)
	}{
		{"no name", func(i *Image) { i.Name = "" }},
		{"no segments", func(i *Image) { i.Segments = nil }},
		{"dup segment", func(i *Image) { i.Segments[1].Name = ".text" }},
		{"missing entry", func(i *Image) { i.EntrySegment = ".nope" }},
		{"entry beyond", func(i *Image) { i.EntryOffset = 1 << 30 }},
		{"entry not exec", func(i *Image) { i.Segments[0].Rights = cap.MemRW }},
		{"empty segment", func(i *Image) { i.Segments[1].Data = nil }},
		{"bad rights", func(i *Image) { i.Segments[1].Rights = cap.RightRun }},
		{"no rights", func(i *Image) { i.Segments[1].Rights = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := sampleImage()
			tc.mutate(img)
			if err := img.Validate(); err == nil {
				t.Fatal("expected validation failure")
			}
		})
	}
}

func TestLayoutDeterministic(t *testing.T) {
	img := sampleImage()
	base := phys.Addr(0x10000)
	pls, err := img.Layout(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(pls) != 4 {
		t.Fatalf("placements = %d", len(pls))
	}
	at := base
	for _, p := range pls {
		if p.Region.Start != at {
			t.Fatalf("segment %q at %v, want %v", p.Segment.Name, p.Region.Start, at)
		}
		if p.Region.Size() != p.Segment.PageSize() {
			t.Fatalf("segment %q size %#x", p.Segment.Name, p.Region.Size())
		}
		at = p.Region.End
	}
	if img.TotalPages() != 5 {
		t.Fatalf("total pages = %d", img.TotalPages())
	}
	entry, err := img.Entry(base)
	if err != nil || entry != base {
		t.Fatalf("entry = %v, %v", entry, err)
	}
	if _, err := img.Layout(0x123); err == nil {
		t.Fatal("unaligned base accepted")
	}
}

func TestMeasurementSensitivity(t *testing.T) {
	img := sampleImage()
	base := phys.Addr(0x10000)
	m1, err := img.Measurement(base)
	if err != nil {
		t.Fatal(err)
	}
	// Same image, same base: same measurement.
	m2, _ := sampleImage().Measurement(base)
	if m1 != m2 {
		t.Fatal("measurement not deterministic")
	}
	// Different base: different measurement (entry and regions move).
	m3, _ := img.Measurement(0x20000)
	if m1 == m3 {
		t.Fatal("measurement must bind the load address")
	}
	// Changing measured content changes it.
	img2 := sampleImage()
	img2.Segments[1].Data[0] ^= 0xff
	m4, _ := img2.Measurement(base)
	if m1 == m4 {
		t.Fatal("measured data change not reflected")
	}
	// Changing unmeasured (shared) segment does not change it.
	img3 := sampleImage()
	img3.Segments[3].Size = 2 * phys.PageSize // moves nothing before it
	m5, _ := img3.Measurement(base)
	if m1 != m5 {
		t.Fatal("unmeasured trailing segment changed the measurement")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := sampleImage()
	img.Segments[0].Ring = hw.RingUser
	data, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || got.EntrySegment != img.EntrySegment || got.EntryOffset != img.EntryOffset {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Segments) != len(img.Segments) {
		t.Fatalf("segments = %d", len(got.Segments))
	}
	for i := range img.Segments {
		a, b := &img.Segments[i], &got.Segments[i]
		if a.Name != b.Name || !bytes.Equal(a.Data, b.Data) || a.Size != b.Size ||
			a.Rights != b.Rights || a.Ring != b.Ring ||
			a.Confidential != b.Confidential || a.Measured != b.Measured {
			t.Fatalf("segment %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// Measurements agree across the roundtrip.
	m1, _ := img.Measurement(0x10000)
	m2, _ := got.Measurement(0x10000)
	if m1 != m2 {
		t.Fatal("measurement changed across serialization")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Fatalf("Decode(%v) accepted garbage", c)
		}
	}
	// Corrupt a valid encoding.
	data, err := sampleImage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-3]
	if _, err := Decode(data); err == nil {
		t.Fatal("truncated image accepted")
	}
	// Implausible claimed length.
	bad, _ := sampleImage().Encode()
	bad[8] = 0xff // corrupt the name length field
	if _, err := Decode(bad); err == nil {
		t.Fatal("oversized field accepted")
	}
}

func TestSegmentLookupAndSizes(t *testing.T) {
	img := sampleImage()
	if img.Segment(".data") == nil || img.Segment("nope") != nil {
		t.Fatal("segment lookup wrong")
	}
	s := img.Segment(".bss")
	if s.ByteSize() != 2*phys.PageSize || s.PageSize() != 2*phys.PageSize {
		t.Fatalf("bss sizes: %d/%d", s.ByteSize(), s.PageSize())
	}
	d := img.Segment(".data")
	if d.PageSize() != phys.PageSize {
		t.Fatalf("data page size = %d", d.PageSize())
	}
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
