package wal

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"reachac/internal/core"
	"reachac/internal/graph"
)

// A checkpoint is one header line followed by the two section payloads:
//
//	{"magic":"reachac-checkpoint-v1","graph":G,"policy":P,"crc":C}\n
//	<G bytes of graph.Graph.Write output><P bytes of core.Store.Write output>
//
// The section lengths make the stream self-delimiting (both sections are
// themselves line-delimited JSON, so they could not otherwise be split
// apart safely), and the CRC over both sections rejects a checkpoint that
// was corrupted after the fact — recovery then falls back to the previous
// checkpoint plus the still-present log segments.

const checkpointMagic = "reachac-checkpoint-v1"

type checkpointHeader struct {
	Magic    string `json:"magic"`
	GraphLen int64  `json:"graph"`
	StoreLen int64  `json:"policy"`
	CRC      uint32 `json:"crc"`
	// Chain anchors the tamper-evident hash chain: the chain value at the
	// rotation boundary this checkpoint covers, hex-encoded. Empty on
	// pre-chain checkpoints and plain state streams (WriteState), which
	// anchor at the genesis (all-zero) chain.
	Chain string `json:"chain,omitempty"`
}

// writeCheckpoint serializes a consistent (graph, store) pair to w, with
// chain as the recorded anchor. The header comes first and carries the
// sections' lengths and CRC, so the sections are serialized into a
// chunkList before anything is written: a bytes.Buffer copies itself to
// grow, and allocated ~16 MB for the ~5 MB graph section of a 20k-member
// checkpoint.
func writeCheckpoint(w io.Writer, g *graph.Graph, s *core.Store, chain Chain) error {
	var sec chunkList
	if err := g.Write(&sec); err != nil {
		return err
	}
	graphLen := sec.size()
	if err := s.Write(&sec); err != nil {
		return err
	}
	crc := uint32(0)
	for _, c := range sec {
		crc = crc32.Update(crc, crcTable, c)
	}
	hdr, err := json.Marshal(checkpointHeader{
		Magic:    checkpointMagic,
		GraphLen: int64(graphLen),
		StoreLen: int64(sec.size() - graphLen),
		CRC:      crc,
		Chain:    hex.EncodeToString(chain[:]),
	})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return err
	}
	for _, c := range sec {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	return nil
}

// maxCheckpointSection bounds one checkpoint section, so a corrupt header
// cannot drive a giant allocation.
const maxCheckpointSection = 1 << 31

// readCheckpoint deserializes a checkpoint written by writeCheckpoint,
// returning the recorded chain anchor alongside the state.
func readCheckpoint(r io.Reader) (*graph.Graph, *core.Store, Chain, error) {
	var chain Chain
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, nil, chain, fmt.Errorf("wal: reading checkpoint header: %w", err)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, nil, chain, fmt.Errorf("wal: decoding checkpoint header: %w", err)
	}
	if hdr.Magic != checkpointMagic {
		return nil, nil, chain, fmt.Errorf("wal: bad checkpoint magic %q", hdr.Magic)
	}
	if hdr.GraphLen < 0 || hdr.StoreLen < 0 || hdr.GraphLen > maxCheckpointSection || hdr.StoreLen > maxCheckpointSection {
		return nil, nil, chain, fmt.Errorf("wal: absurd checkpoint section lengths (%d, %d)", hdr.GraphLen, hdr.StoreLen)
	}
	if hdr.Chain != "" {
		raw, err := hex.DecodeString(hdr.Chain)
		if err != nil || len(raw) != len(chain) {
			return nil, nil, chain, fmt.Errorf("wal: malformed checkpoint chain anchor %q", hdr.Chain)
		}
		copy(chain[:], raw)
	}
	gb := make([]byte, hdr.GraphLen)
	if _, err := io.ReadFull(br, gb); err != nil {
		return nil, nil, chain, fmt.Errorf("wal: reading checkpoint graph section: %w", err)
	}
	sb := make([]byte, hdr.StoreLen)
	if _, err := io.ReadFull(br, sb); err != nil {
		return nil, nil, chain, fmt.Errorf("wal: reading checkpoint policy section: %w", err)
	}
	crc := crc32.Checksum(gb, crcTable)
	crc = crc32.Update(crc, crcTable, sb)
	if crc != hdr.CRC {
		return nil, nil, chain, fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	g, err := graph.Read(bytes.NewReader(gb))
	if err != nil {
		return nil, nil, chain, err
	}
	s, err := core.ReadStore(bytes.NewReader(sb), g)
	if err != nil {
		return nil, nil, chain, err
	}
	return g, s, chain, nil
}

func readCheckpointFile(path string) (*graph.Graph, *core.Store, Chain, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, Chain{}, err
	}
	defer f.Close()
	return readCheckpoint(f)
}

// WriteState serializes a consistent (graph, store) pair in checkpoint
// format; the facade's Network.SaveState exposes it as the one-stream
// whole-network persistence format. State streams record the genesis anchor.
func WriteState(w io.Writer, g *graph.Graph, s *core.Store) error {
	return writeCheckpoint(w, g, s, Chain{})
}

// ReadState deserializes a stream written by WriteState.
func ReadState(r io.Reader) (*graph.Graph, *core.Store, error) {
	g, s, _, err := readCheckpoint(r)
	return g, s, err
}
