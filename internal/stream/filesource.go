package stream

import (
	"fmt"
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

// imageSource is a RawSource whose records lie in an image that stays
// valid, and unchanged, until the source is closed: nextAt says where
// the next one is instead of copying it.
type imageSource interface {
	RawSource
	nextAt() (imageRecord, error)
}

// imageRecord locates a record in img: its bytes are [off, end), and
// layout reads it again from hdr, where its header starts.
type imageRecord struct {
	img           []byte
	hdr, off, end int
	layout        *pcap.Layout
	link          pcap.LinkType
}

// FileSource reads a finished capture held whole in memory: the file
// mapped read-only, or read into the heap where it cannot be mapped.
// Read sequentially it yields what PCAPSource yields over the same
// bytes. It is a SegmentedSource, so the engine can split it across
// Config.Readers parallel readers, and an imageSource, so no record is
// copied between the file and the shard that decodes it.
type FileSource struct {
	path   string // empty for NewReaderAtSource
	img    []byte
	mapped bool           // Close unmaps img
	seq    *segmentSource // the sequential face, opened on first use
}

// NewFileSource maps a capture file for (optionally parallel) reading;
// Close releases the mapping. Truncating the file while an engine
// reads it is a fatal fault (SIGBUS), as for any mapping: a file being
// written is FollowSource's.
func NewFileSource(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(st.Size())
	if int64(size) != st.Size() {
		return nil, fmt.Errorf("stream: %s is too large to map (%d bytes)", path, st.Size())
	}
	if img, err := mapFile(f, size); err == nil {
		return &FileSource{path: path, img: img, mapped: true}, nil
	}
	// No mapping (an empty file, no mmap here): one heap image instead.
	img := make([]byte, size)
	if _, err := io.ReadFull(f, img); err != nil {
		return nil, fmt.Errorf("stream: reading %s: %w", path, err)
	}
	return &FileSource{path: path, img: img}, nil
}

// Path is the file NewFileSource opened.
func (s *FileSource) Path() string { return s.path }

// NewReaderAtSource reads a capture of the given size (bytes.Reader
// satisfies io.ReaderAt) into a heap image and reads it like
// NewFileSource. Whatever ReadAt could not deliver is a capture cut
// short there: its reader reports the truncation.
func NewReaderAtSource(ra io.ReaderAt, size int64) *FileSource {
	img := make([]byte, max(size, 0))
	n, _ := ra.ReadAt(img, 0)
	return &FileSource{img: img[:n]}
}

func (s *FileSource) sequential() (*segmentSource, error) {
	if s.seq == nil {
		pr, err := pcap.NewImageReader(s.img)
		if err != nil {
			return nil, err
		}
		s.seq = newSegmentSource(pr, s.img, SegmentInfo{})
	}
	return s.seq, nil
}

// Next implements Source via a sequential read of the whole capture.
func (s *FileSource) Next() (pcap.Packet, error) { return nextDecoded(s) }

// NextRaw implements RawSource via a sequential read, copying each
// record into scratch.
func (s *FileSource) NextRaw(scratch []byte) ([]byte, pcap.CaptureInfo, pcap.LinkType, error) {
	seq, err := s.sequential()
	if err != nil {
		return nil, pcap.CaptureInfo{}, 0, err
	}
	return seq.NextRaw(scratch)
}

func (s *FileSource) nextAt() (imageRecord, error) {
	seq, err := s.sequential()
	if err != nil {
		return imageRecord{}, err
	}
	return seq.nextAt()
}

// Segments plans up to n record-aligned segments and opens an
// independent reader over each. Fewer than n sources come back when
// the capture is too small to split further; reading them in order
// reproduces the sequential record stream exactly.
func (s *FileSource) Segments(n int) ([]RawSource, error) {
	plan, err := pcap.PlanImage(s.img, n)
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
		out[i] = newSegmentSource(pr, s.img, SegmentInfo{Off: seg.Off, Size: seg.Size()})
	}
	return out, nil
}

// Close releases the image, unmapping a mapped file. A shard decodes
// its records where they lie, so Close must wait for Engine.Run to
// return. Closing twice is harmless.
func (s *FileSource) Close() error {
	img, mapped := s.img, s.mapped
	s.img, s.mapped, s.seq = nil, false, nil
	if mapped {
		return unmap(img)
	}
	return nil
}

// segmentSource reads a range of a FileSource's image — a planned
// segment, or the whole capture — in place through nextAt, and through
// the copying PCAPSource face for any other caller.
type segmentSource struct {
	PCAPSource
	at   inPlace
	img  []byte
	info SegmentInfo // statusz reports a reader's progress through it
}

// inPlace is what pcap's readers over an image add to PacketReader.
type inPlace interface {
	NextAt() (hdr, off, end int, l *pcap.Layout, err error)
}

func newSegmentSource(pr pcap.PacketReader, img []byte, info SegmentInfo) *segmentSource {
	return &segmentSource{PCAPSource: PCAPSource{pr: pr}, at: pr.(inPlace), img: img, info: info}
}

func (s *segmentSource) nextAt() (imageRecord, error) {
	hdr, off, end, l, err := s.at.NextAt()
	return imageRecord{s.img, hdr, off, end, l, s.pr.LinkType()}, readErr(err)
}
