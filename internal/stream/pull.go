package stream

import (
	"context"
	"errors"
	"io"
	"time"

	"uncharted/internal/obs/trace"
	"uncharted/internal/pcap"
)

// RecordSink is what a Pull caller does with the records it is handed.
// A sink is used from the pulling goroutine only. Each method reports
// false when ctx died while it was blocked, which ends the loop.
type RecordSink interface {
	// Raw receives one undecoded record from a RawSource. data is only
	// valid during the call: the loop reads the next record into it.
	Raw(ctx context.Context, data []byte, ci pcap.CaptureInfo, link pcap.LinkType) bool
	// Packet receives one decoded packet from a plain Source.
	Packet(ctx context.Context, pkt pcap.Packet) bool
	// Flush pushes out whatever the sink is holding back. Pull calls it
	// at every quiet point (ErrNotReady) and once when the loop ends.
	Flush(ctx context.Context) bool
}

// Pull is the one read loop: it pulls records from src — undecoded via
// NextRaw when src is a RawSource, decoded via Next otherwise — and
// hands each to sink until io.EOF, a source error or ctx cancellation.
// ErrNotReady flushes the sink and polls again after poll. Each
// successful read is a StageRead span on lane (nil: untraced).
//
// Pull returns nil at io.EOF, ctx.Err() on cancellation, or the
// source's error. Whatever ends the loop, the sink is flushed first:
// a damaged feed still delivers every record before the fault, exactly
// like the offline Analyzer.ReadPCAP (after a cancellation the flush
// is best effort — a sink that would block on the dead ctx gives up).
func Pull(ctx context.Context, src Source, poll time.Duration, lane *trace.Lane, sink RecordSink) error {
	defer sink.Flush(ctx)
	raw, _ := src.(RawSource)
	// scratch is the record buffer: each raw record is read into it and
	// copied out by the sink, so a single buffer serves the whole run.
	var scratch []byte
	// wait is the one quiet-point poll timer. It is only Reset after its
	// tick was received, so no stale tick can be pending.
	var wait *time.Timer
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		var err error
		delivered := false
		sp := lane.Start()
		if raw != nil {
			var data []byte
			var ci pcap.CaptureInfo
			var link pcap.LinkType
			if data, ci, link, err = raw.NextRaw(scratch); err == nil {
				lane.End(sp, trace.StageRead, 1, -1)
				scratch = data
				delivered = sink.Raw(ctx, data, ci, link)
			}
		} else {
			var pkt pcap.Packet
			if pkt, err = src.Next(); err == nil {
				lane.End(sp, trace.StageRead, 1, -1)
				delivered = sink.Packet(ctx, pkt)
			}
		}
		switch {
		case err == nil:
			if !delivered {
				return ctx.Err()
			}
		case errors.Is(err, ErrNotReady):
			if !sink.Flush(ctx) {
				return ctx.Err()
			}
			if wait == nil {
				wait = time.NewTimer(poll)
				defer wait.Stop()
			} else {
				wait.Reset(poll)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-wait.C:
			}
		case errors.Is(err, io.EOF):
			return nil
		default:
			return err
		}
	}
}
