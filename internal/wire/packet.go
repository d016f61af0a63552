package wire

import "fmt"

// Packet is a fully decoded packet as seen by simulator devices: the IPv4
// header plus exactly one transport layer. Decoded transport payloads alias
// the buffer the packet was decoded from.
type Packet struct {
	IP   IPv4
	UDP  *UDP
	TCP  *TCP
	ICMP *ICMP
}

// Parser decodes packets into reusable layer storage, in the style of
// gopacket's DecodingLayerParser: one Parser per goroutine, zero
// allocations per packet on the happy path.
type Parser struct {
	udp  UDP
	tcp  TCP
	icmp ICMP
}

// Decode parses data into pkt. pkt retains references into data; the caller
// must not reuse data while pkt is live. The transport pointer fields are
// owned by the Parser and overwritten by the next Decode call.
func (p *Parser) Decode(data []byte, pkt *Packet) error {
	pkt.UDP, pkt.TCP, pkt.ICMP = nil, nil, nil
	if err := pkt.IP.DecodeFromBytes(data); err != nil {
		return err
	}
	payload := pkt.IP.Payload()
	switch pkt.IP.Protocol {
	case ProtoUDP:
		if err := p.udp.DecodeFromBytes(payload, pkt.IP.Src, pkt.IP.Dst); err != nil {
			return fmt.Errorf("udp: %w", err)
		}
		pkt.UDP = &p.udp
	case ProtoTCP:
		if err := p.tcp.DecodeFromBytes(payload, pkt.IP.Src, pkt.IP.Dst); err != nil {
			return fmt.Errorf("tcp: %w", err)
		}
		pkt.TCP = &p.tcp
	case ProtoICMP:
		if err := p.icmp.DecodeFromBytes(payload); err != nil {
			return fmt.Errorf("icmp: %w", err)
		}
		pkt.ICMP = &p.icmp
	default:
		return fmt.Errorf("wire: unsupported protocol %d", pkt.IP.Protocol)
	}
	return nil
}

// Decode is a convenience one-shot parse that allocates its own layers.
func Decode(data []byte) (*Packet, error) {
	var p Parser
	var pkt Packet
	if err := p.Decode(data, &pkt); err != nil {
		return nil, err
	}
	// Detach the layer storage from the throwaway parser.
	out := &Packet{IP: pkt.IP}
	switch {
	case pkt.UDP != nil:
		u := *pkt.UDP
		out.UDP = &u
	case pkt.TCP != nil:
		t := *pkt.TCP
		out.TCP = &t
	case pkt.ICMP != nil:
		m := *pkt.ICMP
		out.ICMP = &m
	}
	return out, nil
}

// Flow returns the transport flow of the packet. ICMP packets report port 0
// on both sides.
func (pkt *Packet) Flow() Flow {
	f := Flow{Proto: pkt.IP.Protocol}
	f.Src.Addr, f.Dst.Addr = pkt.IP.Src, pkt.IP.Dst
	switch {
	case pkt.UDP != nil:
		f.Src.Port, f.Dst.Port = pkt.UDP.SrcPort, pkt.UDP.DstPort
	case pkt.TCP != nil:
		f.Src.Port, f.Dst.Port = pkt.TCP.SrcPort, pkt.TCP.DstPort
	}
	return f
}

// TransportPayload returns the application payload, regardless of transport.
func (pkt *Packet) TransportPayload() []byte {
	switch {
	case pkt.UDP != nil:
		return pkt.UDP.Payload()
	case pkt.TCP != nil:
		return pkt.TCP.Payload()
	case pkt.ICMP != nil:
		return pkt.ICMP.Payload()
	}
	return nil
}

// BuildUDP serializes a complete IPv4/UDP packet in a single allocation:
// the transport layer serializes in place behind the header slot, so the
// payload is copied exactly once.
func BuildUDP(src, dst Endpoint, ttl uint8, id uint16, payload []byte) ([]byte, error) {
	udp := UDP{SrcPort: src.Port, DstPort: dst.Port}
	buf := make([]byte, IPv4HeaderLen+UDPHeaderLen+len(payload))
	if _, err := udp.SerializeTo(buf[IPv4HeaderLen:], src.Addr, dst.Addr, payload); err != nil {
		return nil, err
	}
	ip := IPv4{TTL: ttl, Protocol: ProtoUDP, ID: id, Src: src.Addr, Dst: dst.Addr, Flags: FlagDF}
	if err := ip.SerializeHeader(buf, len(buf)-IPv4HeaderLen); err != nil {
		return nil, err
	}
	return buf, nil
}

// BuildTCP serializes a complete IPv4/TCP packet in a single allocation.
func BuildTCP(src, dst Endpoint, ttl uint8, id uint16, flags uint8, seq, ack uint32, payload []byte) ([]byte, error) {
	tcp := TCP{SrcPort: src.Port, DstPort: dst.Port, Seq: seq, Ack: ack, Flags: flags, Window: 65535}
	buf := make([]byte, IPv4HeaderLen+TCPHeaderLen+len(payload))
	if _, err := tcp.SerializeTo(buf[IPv4HeaderLen:], src.Addr, dst.Addr, payload); err != nil {
		return nil, err
	}
	ip := IPv4{TTL: ttl, Protocol: ProtoTCP, ID: id, Src: src.Addr, Dst: dst.Addr, Flags: FlagDF}
	if err := ip.SerializeHeader(buf, len(buf)-IPv4HeaderLen); err != nil {
		return nil, err
	}
	return buf, nil
}

// BuildICMP serializes a complete IPv4/ICMP packet in a single allocation.
func BuildICMP(src, dst Addr, ttl uint8, id uint16, msg *ICMP, msgPayload []byte) ([]byte, error) {
	buf := make([]byte, IPv4HeaderLen+ICMPHeaderLen+len(msgPayload))
	if _, err := msg.SerializeTo(buf[IPv4HeaderLen:], msgPayload); err != nil {
		return nil, err
	}
	ip := IPv4{TTL: ttl, Protocol: ProtoICMP, ID: id, Src: src, Dst: dst}
	if err := ip.SerializeHeader(buf, len(buf)-IPv4HeaderLen); err != nil {
		return nil, err
	}
	return buf, nil
}
