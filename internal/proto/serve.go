package proto

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/target"
)

// maxServeProcs bounds the per-iteration rank count a target accepts. The
// engine caps process counts at Config.MaxProcs (16 in the paper); anything
// past this is a confused or hostile driver, not a campaign.
const maxServeProcs = 1024

// Serve is the target side of the protocol: it turns the calling process
// into a drivable COMPI target for prog. It writes the handshake to w, then
// serves assign frames from r until EOF — each one executed through the same
// in-process backend the engine uses locally, with one variable space held
// for the whole session so symbolic variable IDs stay stable across
// iterations exactly as they do in-process — and answers each with one rank
// frame per rank, flushed together.
//
// Any Go binary linking internal/conc-instrumented code can expose itself:
// build a target.Program (or look one up in the registry) and call
// Serve(os.Stdin, os.Stdout, prog). cmd/compi-target is the reference
// binary. Serve returns nil on a clean driver disconnect (EOF between
// iterations) and an error on a protocol violation, which the binary should
// turn into a non-zero exit so the driver's crash capture records it.
func Serve(r io.Reader, w io.Writer, prog *target.Program) error {
	if prog == nil {
		return fmt.Errorf("proto: Serve with a nil program")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	err := WriteFrame(bw, Frame{Type: FrameHandshake, Handshake: &Handshake{
		Proto:    Version,
		Manifest: prog.Manifest(),
	}})
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("proto: writing handshake: %w", err)
	}

	backend := core.NewInProcess(prog, conc.NewVarSpace())
	defer backend.Close()

	br := bufio.NewReaderSize(r, 1<<16)
	var in, out []byte // frame buffers, reused across iterations
	for {
		in, err = readRaw(br, in)
		if errors.Is(err, io.EOF) {
			return nil // driver closed the session
		}
		if err != nil {
			return fmt.Errorf("proto: reading assign frame: %w", err)
		}
		s, err := decodeAssign(in)
		if err != nil {
			return err
		}
		if s.NProcs < 1 || s.NProcs > maxServeProcs {
			return fmt.Errorf("proto: assign frame with nprocs %d (want 1..%d)", s.NProcs, maxServeProcs)
		}
		if s.Focus < 0 || s.Focus >= s.NProcs {
			return fmt.Errorf("proto: assign frame with focus %d outside 0..%d", s.Focus, s.NProcs-1)
		}

		run := backend.Launch(s)
		for _, rr := range run.Ranks {
			f := rankFrame{status: rr.Status, exit: rr.Exit}
			if rr.Err != nil {
				f.msg = rr.Err.Error()
			}
			out = appendRank(appendFrameHeader(out[:0]), f)
			if rr.Log != nil { // nil after a hard hang: the rank never produced a log
				out = rr.Log.AppendEncode(out)
			}
			if err := endFrame(out); err != nil {
				return fmt.Errorf("proto: writing rank %d: %w", rr.Rank, err)
			}
			if _, err := bw.Write(out); err != nil {
				return fmt.Errorf("proto: writing rank %d: %w", rr.Rank, err)
			}
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("proto: writing rank frames: %w", err)
		}
	}
}
