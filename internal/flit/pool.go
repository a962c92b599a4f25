package flit

// PacketPool recycles Packets through a freelist so the paths that mint
// a short-lived packet per message — every protocol send (through
// network.NewPacket) and the routers' multicast replicators — stop
// reaching the garbage collector. One pool belongs to one simulation run
// (one kernel) and is only touched from the goroutine driving that
// kernel, so it needs no synchronization — the same per-run ownership
// discipline as the rest of the simulator state.
//
// Ownership: a pooled packet belongs to whoever holds it in the chain
// Get -> sender (until Send) -> network -> Put at ejection. The router
// Puts the packet once its last flit has been ejected, and the next Get
// zeroes and reuses it, so nobody — in particular no endpoint's Deliver
// — may keep a pooled packet, or a pointer into one, past the call that
// handed it over. The Payload is not the pool's: Put only drops the
// reference.
//
// Packets from Get are marked internally; Put on a packet that did not
// come from a pool (or was already returned) is a no-op, so drain paths
// may call Put unconditionally on every ejected packet and callers may
// still inject packets they own. A nil *PacketPool degrades gracefully:
// Get falls back to a plain heap allocation and Put does nothing, so
// unwired routers keep working without a pool.
type PacketPool struct {
	free []*Packet

	gets uint64 // packets handed out
	puts uint64 // packets returned
	news uint64 // gets that had to allocate (freelist empty)
}

// Get returns a zeroed pooled packet (or a plain allocation when p is nil).
func (p *PacketPool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.gets++
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*pkt = Packet{pooled: true}
		return pkt
	}
	p.news++
	return &Packet{pooled: true}
}

// Put returns a pooled packet to the freelist, dropping its payload
// reference. Non-pooled, already-returned, and nil packets are ignored.
func (p *PacketPool) Put(pkt *Packet) {
	if p == nil || pkt == nil || !pkt.pooled {
		return
	}
	pkt.pooled = false
	p.puts++
	pkt.Payload = nil
	p.free = append(p.free, pkt)
}

// PoolStats is a snapshot of a pool's accounting, the basis of the leak
// invariant: after a run drains, Gets == Puts and Live == 0.
type PoolStats struct {
	Gets      uint64 // packets handed out
	Puts      uint64 // packets returned exactly once
	Allocated uint64 // gets served by a fresh allocation
	Live      uint64 // packets currently out (Gets - Puts)
}

// Stats returns the pool's accounting snapshot (zero for a nil pool).
func (p *PacketPool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{Gets: p.gets, Puts: p.puts, Allocated: p.news, Live: p.gets - p.puts}
}
