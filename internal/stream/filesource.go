package stream

import (
	"io"
	"os"

	"uncharted/internal/pcap"
)

// SegmentedSource is the parallel-ingest face a RawSource may
// implement when its backing capture is seekable: Segments plans up
// to n record-aligned sub-sources that together yield exactly the
// records a sequential read would, in order within each segment. The
// engine runs one reader goroutine per returned source.
type SegmentedSource interface {
	RawSource
	Segments(n int) ([]RawSource, error)
}

// SegmentInfo describes one parallel reader's byte range, for
// progress reporting.
type SegmentInfo struct {
	Off  int64 // byte offset of the segment in the capture
	Size int64 // segment length in bytes
}

// segmentExtent is implemented by segment sources that know their
// byte range; statusz uses it for per-reader progress.
type segmentExtent interface {
	Extent() SegmentInfo
}

// FileSource reads a finished capture from a seekable backing store.
// It behaves exactly like PCAPSource when read sequentially, and
// additionally implements SegmentedSource so the engine can split it
// across Config.Readers parallel readers.
type FileSource struct {
	ra   io.ReaderAt
	size int64
	f    *os.File // set when opened from a path; closed by Close

	inner *PCAPSource // lazy sequential face
}

// NewFileSource opens a capture file for (optionally parallel)
// reading. The returned source owns the file handle; Close releases
// it.
func NewFileSource(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{ra: f, size: st.Size(), f: f}, nil
}

// NewReaderAtSource wraps an in-memory or otherwise seekable capture
// of the given size (bytes.Reader satisfies io.ReaderAt).
func NewReaderAtSource(ra io.ReaderAt, size int64) *FileSource {
	return &FileSource{ra: ra, size: size}
}

func (s *FileSource) sequential() (*PCAPSource, error) {
	if s.inner == nil {
		inner, err := NewPCAPSource(io.NewSectionReader(s.ra, 0, s.size))
		if err != nil {
			return nil, err
		}
		s.inner = inner
	}
	return s.inner, nil
}

// Next implements Source via a sequential read of the whole capture.
func (s *FileSource) Next() (pcap.Packet, error) { return nextDecoded(s) }

// NextRaw implements RawSource via a sequential read.
func (s *FileSource) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	inner, err := s.sequential()
	if err != nil {
		return nil, pcap.CaptureInfo{}, 0, err
	}
	return inner.NextRaw(scratch)
}

// Segments plans up to n record-aligned segments and opens an
// independent reader over each. Fewer than n sources come back when
// the capture is too small to split further; reading them in order
// reproduces the sequential record stream exactly.
func (s *FileSource) Segments(n int) ([]RawSource, error) {
	plan, err := pcap.PlanSegments(s.ra, s.size, n)
	if err != nil {
		return nil, err
	}
	out := make([]RawSource, plan.Len())
	for i := range out {
		pr, err := plan.Open(i)
		if err != nil {
			return nil, err
		}
		seg := plan.Segment(i)
		out[i] = &segmentSource{
			PCAPSource: PCAPSource{pr: pr},
			info:       SegmentInfo{Off: seg.Off, Size: seg.Size()},
		}
	}
	return out, nil
}

// Close releases the file handle when the source owns one.
func (s *FileSource) Close() error {
	if s.f != nil {
		return s.f.Close()
	}
	return nil
}

// segmentSource is one planned byte range of a FileSource: a plain
// PCAPSource over a state-seeded range reader, plus its extent.
type segmentSource struct {
	PCAPSource
	info SegmentInfo
}

func (s *segmentSource) Extent() SegmentInfo { return s.info }
