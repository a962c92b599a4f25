package telemetry

import (
	"bufio"
	"io"
	"strconv"

	"nucanet/internal/flit"
)

// EventType tags one trace event.
type EventType uint8

const (
	// EvInject is a flit entering the network at its source router.
	EvInject EventType = iota
	// EvRoute is a flit granted switch traversal toward a neighbor.
	EvRoute
	// EvVCAlloc is a head flit claiming a downstream virtual channel.
	EvVCAlloc
	// EvEject is a flit leaving the network into a local endpoint.
	EvEject
	// EvFork is a multicast replica copied into a stolen VC.
	EvFork
	numEvents
)

var evNames = [numEvents]string{"inject", "route", "vcalloc", "eject", "fork"}

func (e EventType) String() string { return evNames[e] }

// Event is one flit-level occurrence. Fields are sized for density: a
// trace holds millions of these.
type Event struct {
	Cycle int64
	Pkt   uint64 // packet id (0 before injection stamps it)
	Kind  flit.Kind
	Type  EventType
	Seq   int16 // flit position within the packet
	Node  int32
	Port  int32 // out port (route/fork), in port (eject), -1 otherwise
	VC    int32 // virtual channel, -1 when not applicable
}

// Trace buffers the event stream of one run in emission order — which
// is kernel tick order, hence deterministic for a fixed seed.
type Trace struct {
	events []Event
}

// NewTrace returns an empty trace buffer.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) add(now int64, ev EventType, pkt *flit.Packet, seq, node, port, vc int) {
	t.events = append(t.events, Event{
		Cycle: now, Pkt: pkt.ID, Kind: pkt.Kind, Type: ev,
		Seq: int16(seq), Node: int32(node), Port: int32(port), VC: int32(vc),
	})
}

// Len returns the number of buffered events.
func (t *Trace) Len() int { return len(t.events) }

// WriteJSONL serializes the trace as one JSON object per line with a
// fixed field order, so equal traces produce byte-identical output:
//
//	{"cycle":12,"ev":"route","pkt":3,"kind":"ReadReq","flit":0,"node":119,"port":2,"vc":1}
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 128)
	for i := range t.events {
		e := &t.events[i]
		buf = buf[:0]
		buf = append(buf, `{"cycle":`...)
		buf = strconv.AppendInt(buf, e.Cycle, 10)
		buf = append(buf, `,"ev":"`...)
		buf = append(buf, evNames[e.Type]...)
		buf = append(buf, `","pkt":`...)
		buf = strconv.AppendUint(buf, e.Pkt, 10)
		buf = append(buf, `,"kind":"`...)
		buf = append(buf, e.Kind.String()...)
		buf = append(buf, `","flit":`...)
		buf = strconv.AppendInt(buf, int64(e.Seq), 10)
		buf = append(buf, `,"node":`...)
		buf = strconv.AppendInt(buf, int64(e.Node), 10)
		buf = append(buf, `,"port":`...)
		buf = strconv.AppendInt(buf, int64(e.Port), 10)
		buf = append(buf, `,"vc":`...)
		buf = strconv.AppendInt(buf, int64(e.VC), 10)
		buf = append(buf, '}', '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
