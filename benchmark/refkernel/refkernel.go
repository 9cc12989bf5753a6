// Package refkernel is the benchmark's drift sensor: a frozen routine
// whose process-CPU cost tracks how fast this machine is running
// memory-shaped packet work right now. Timed quantities are divided by
// the CPU time of an adjacent Run, so slow minutes of a shared VM
// cancel out of the reported metrics (see ../README.md, "Protocol").
//
// The kernel must never change with the system under test: it imports
// nothing from uncharted/internal (guarded by a test), and any edit to
// it invalidates every ref_nominal_cpu_s constant in ../workloads.go.
package refkernel

import (
	"encoding/binary"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	pcapFileHeader   = 24
	pcapRecordHeader = 16
	// Ethernet (14) + IPv4 without options (20) + TCP without options (20).
	tcpPayloadOff = 54
	copyEvery     = 16
	// walksPerRun repeats the walk (with fresh flow state) so one Run
	// costs ~40 ms of CPU on the reference machine: long enough that
	// timer and scheduling noise are small against it.
	walksPerRun = 2
)

// flowState is what the kernel keeps per 5-tuple; it is deliberately
// pointer-rich and append-heavy so a Run exercises the allocator, the
// map and the caches the way flow tracking does.
type flowState struct {
	packets, bytes uint64
	lastSeq        uint32
	deltas         []uint32
	kept           []byte
}

// Kernel walks the first records of one little-endian classic pcap
// image.
type Kernel struct {
	data    []byte
	offs    []uint32 // record header offsets
	workers int
}

// New indexes up to maxRecords records of data (0 = all). workers is
// how many goroutines a Run splits the records over, by packet index.
func New(data []byte, workers, maxRecords int) *Kernel {
	k := &Kernel{data: data, workers: max(workers, 1)}
	for off := pcapFileHeader; off+pcapRecordHeader <= len(data); {
		capLen := int(binary.LittleEndian.Uint32(data[off+8:]))
		if off+pcapRecordHeader+capLen > len(data) {
			break
		}
		k.offs = append(k.offs, uint32(off))
		off += pcapRecordHeader + capLen
		if maxRecords > 0 && len(k.offs) == maxRecords {
			break
		}
	}
	return k
}

// Records reports how many records a Run walks.
func (k *Kernel) Records() int { return len(k.offs) }

// Run does one fixed unit of work and returns a digest of it (so the
// compiler cannot drop the work) and the CPU time its own goroutines
// took. Each worker pins itself to an OS thread and reads that
// thread's CPU clock, so a Run beside a busy engine still measures
// only the kernel.
func (k *Kernel) Run() (digest uint64, cpu time.Duration) {
	sums := make([]uint64, k.workers)
	cpus := make([]time.Duration, k.workers)
	var wg sync.WaitGroup
	n := len(k.offs)
	for g := 0; g < k.workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := cpuClock(clockThreadCPUTimeID)
			for w := 0; w < walksPerRun; w++ {
				sums[g] += k.walk(k.offs[g*n/k.workers : (g+1)*n/k.workers])
			}
			cpus[g] = cpuClock(clockThreadCPUTimeID) - c0
		}(g)
	}
	wg.Wait()
	for g := range sums {
		digest ^= sums[g]
		cpu += cpus[g]
	}
	return digest, cpu
}

func (k *Kernel) walk(offs []uint32) uint64 {
	flows := make(map[[13]byte]*flowState)
	var digest uint64
	for i, off := range offs {
		capLen := binary.LittleEndian.Uint32(k.data[off+8:])
		frame := k.data[off+pcapRecordHeader : off+pcapRecordHeader+capLen]
		if len(frame) < tcpPayloadOff {
			continue
		}
		var key [13]byte
		copy(key[:8], frame[26:34])   // IPv4 source and destination
		copy(key[8:12], frame[34:38]) // TCP ports
		key[12] = frame[23]           // IP protocol
		st := flows[key]
		if st == nil {
			st = &flowState{}
			flows[key] = st
		}
		seq := binary.BigEndian.Uint32(frame[38:42])
		payload := frame[tcpPayloadOff:]
		st.packets++
		st.bytes += uint64(len(payload))
		st.deltas = append(st.deltas, seq-st.lastSeq)
		st.lastSeq = seq
		h := uint64(14695981039346656037) // FNV-1a
		for _, b := range payload {
			h = (h ^ uint64(b)) * 1099511628211
		}
		digest ^= h + st.packets
		if i%copyEvery == 0 {
			st.kept = append([]byte(nil), payload...)
		}
	}
	for _, st := range flows {
		digest += uint64(len(st.deltas)) + uint64(len(st.kept))
	}
	return digest
}

// Linux clock ids (clock_gettime(2)): the scheduler's nanosecond CPU
// accounting, not getrusage's tick-sampled figure.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// ProcessCPU returns the CPU time (user + system, all threads) this
// process has consumed.
func ProcessCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// Both ids exist on every Linux the toolchain supports; a
		// failure means the benchmark is running somewhere it cannot
		// measure.
		panic("refkernel: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
