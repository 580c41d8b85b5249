package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Trace files let users capture synthetic streams or supply their own
// (e.g. converted SimPoint traces). The format is a compact varint stream:
//
//	header:  8-byte magic "BEARTRC1", uvarint op count
//	per op:  uvarint nonMem
//	         zigzag-varint line delta (vs previous op's line)
//	         uvarint pc
//	         1 byte flags (bit0 = store)
//
// Replaying a finite file wraps around, so any trace drives an arbitrarily
// long simulation (the wrap models a program's outer loop).

const fileMagic = "BEARTRC1"

// maxLine bounds line addresses: a line is a 64-bit byte address >> 6, so
// every real line lies below 2^58. The bound also keeps sram's all-ones
// empty-way sentinel out of the tag arrays.
const maxLine = 1 << 58

// WriteTrace records n ops from src to w.
func WriteTrace(w io.Writer, src Source, n uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:k])
		return err
	}
	if err := writeUvarint(n); err != nil {
		return err
	}
	var op Op
	prevLine := uint64(0)
	for i := uint64(0); i < n; i++ {
		src.Next(&op)
		if err := writeUvarint(uint64(op.NonMem)); err != nil {
			return err
		}
		delta := int64(op.Line) - int64(prevLine)
		k := binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:k]); err != nil {
			return err
		}
		prevLine = op.Line
		if err := writeUvarint(op.PC); err != nil {
			return err
		}
		flags := byte(0)
		if op.Store {
			flags |= 1
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FileTrace is a trace loaded fully into memory (traces are compact; a
// million ops is a few MB) and replayed cyclically.
type FileTrace struct {
	ops []Op
	pos int
}

// Ops returns the number of recorded operations.
func (f *FileTrace) Ops() int { return len(f.ops) }

// Next implements Source, wrapping at the end of the recording.
func (f *FileTrace) Next(op *Op) {
	*op = f.ops[f.pos]
	f.pos++
	if f.pos == len(f.ops) {
		f.pos = 0
	}
}

// Fill writes the next len(ops) records into ops, wrapping at the end of
// the recording as Next does.
func (f *FileTrace) Fill(ops []Op) {
	for len(ops) > 0 {
		n := copy(ops, f.ops[f.pos:])
		ops = ops[n:]
		f.pos += n
		if f.pos == len(f.ops) {
			f.pos = 0
		}
	}
}

// Reset rewinds the replay cursor.
func (f *FileTrace) Reset() { f.pos = 0 }

// ReadTrace parses a trace stream written by WriteTrace.
func ReadTrace(r io.Reader) (*FileTrace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, errors.New("trace: not a BEAR trace file")
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading op count: %w", err)
	}
	const maxOps = 1 << 28 // 256M ops ~ several GB; guards corrupt headers
	if n == 0 || n > maxOps {
		return nil, fmt.Errorf("trace: implausible op count %d", n)
	}
	// The header is only a claim: reserve a bounded prefix and let append
	// grow as ops actually arrive, so a short file cannot demand gigabytes.
	const maxPrealloc = 1 << 16
	f := &FileTrace{ops: make([]Op, 0, min(n, maxPrealloc))}
	prevLine := uint64(0)
	for i := uint64(0); i < n; i++ {
		nonMem, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: op %d nonMem: %w", i, err)
		}
		if nonMem > math.MaxUint32 {
			return nil, fmt.Errorf("trace: op %d nonMem %d overflows uint32", i, nonMem)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: op %d line delta: %w", i, err)
		}
		line := uint64(int64(prevLine) + delta)
		if line >= maxLine {
			return nil, fmt.Errorf("trace: op %d line %#x is not a line address", i, line)
		}
		prevLine = line
		pc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: op %d pc: %w", i, err)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: op %d flags: %w", i, err)
		}
		f.ops = append(f.ops, Op{
			NonMem: uint32(nonMem),
			Line:   line,
			PC:     pc,
			Store:  flags&1 != 0,
		})
	}
	return f, nil
}

// SaveTraceFile records n ops of src into path.
func SaveTraceFile(path string, src Source, n uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, src, n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTraceFile reads a trace file from path.
func LoadTraceFile(path string) (*FileTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// FromFiles builds a workload with one trace file per core.
func FromFiles(name string, paths []string) (Workload, error) {
	if len(paths) == 0 {
		return Workload{}, errors.New("trace: no trace files given")
	}
	w := Workload{Name: name}
	for _, p := range paths {
		ft, err := LoadTraceFile(p)
		if err != nil {
			return Workload{}, fmt.Errorf("trace: %s: %w", p, err)
		}
		w.Sources = append(w.Sources, ft)
		w.Benchs = append(w.Benchs, Benchmark{Name: name})
	}
	return w, nil
}
