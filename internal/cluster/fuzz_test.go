package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzParseFrames exercises every payload parser with arbitrary bytes:
// they must reject garbage with errors, never panic.
func FuzzParseFrames(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(helloPayload(3, "127.0.0.1:9999"), uint8(0))
	f.Add(addrBookPayload([]string{"a:1", "b:2"}), uint8(1))
	f.Add(batchPayload(1, 1, 0, nil), uint8(2))
	f.Add(valuesPayload(0, []uint64{1, 2, 3}), uint8(3))
	f.Add(joinPayload(1, 7, "127.0.0.1:9999"), uint8(5))
	f.Add(stepFailedPayload(3, "peer 1 unreachable"), uint8(6))
	f.Add(migrateReqPayload(5, 11), uint8(7))
	f.Add(migrateBlobPayload(2, []byte{1, 2, 3, 4}), uint8(8))
	f.Add(routingPayload([]int{0, 1, 1, 2}), uint8(9))
	f.Add(ivPayload(9), uint8(10))
	f.Fuzz(func(t *testing.T, payload []byte, which uint8) {
		switch which % 11 {
		case 0:
			if _, addr, err := parseHello(payload); err == nil && len(addr) > len(payload) {
				t.Fatal("hello address longer than payload")
			}
		case 1:
			if addrs, err := parseAddrBook(payload); err == nil {
				total := 4
				for _, a := range addrs {
					total += 2 + len(a)
				}
				if total > len(payload) {
					t.Fatal("address book claims more bytes than payload")
				}
			}
		case 2:
			if _, _, _, batch, err := parseBatch(payload); err == nil {
				if len(payload) != 24+12*len(batch) {
					t.Fatal("batch length inconsistent")
				}
			}
		case 3:
			if _, payloads, err := parseValues(payload); err == nil {
				if len(payload) != 16+8*len(payloads) {
					t.Fatal("values length inconsistent")
				}
			}
		case 4:
			if _, err := readU64s(payload, 3); err == nil && len(payload) < 24 {
				t.Fatal("readU64s accepted short payload")
			}
		case 5:
			if _, _, addr, err := parseJoin(payload); err == nil && len(addr) > len(payload) {
				t.Fatal("join address longer than payload")
			}
		case 6:
			if _, reason, err := parseStepFailed(payload); err == nil && len(reason) > len(payload) {
				t.Fatal("step-failed reason longer than payload")
			}
		case 7:
			if _, _, err := parseMigrateReq(payload); err == nil && len(payload) != 12 {
				t.Fatal("migrate request length inconsistent")
			}
		case 8:
			if _, blob, err := parseMigrateBlob(payload); err == nil && len(blob) != len(payload)-4 {
				t.Fatal("migrate blob length inconsistent")
			}
		case 9:
			if owners, err := parseRouting(payload); err == nil {
				if len(payload) != 4+4*len(owners) || len(owners) == 0 {
					t.Fatal("routing table length inconsistent")
				}
			}
		case 10:
			if _, err := parseIv(payload); err == nil && len(payload) != 4 {
				t.Fatal("interval id length inconsistent")
			}
		}
	})
}

// FuzzRoundTripPayloads checks encode/decode inverses for valid inputs.
func FuzzRoundTripPayloads(f *testing.F) {
	f.Add(uint32(7), "127.0.0.1:1234")
	f.Fuzz(func(t *testing.T, id uint32, addr string) {
		if len(addr) > 1<<15 {
			return
		}
		gotID, gotAddr, err := parseHello(helloPayload(id, addr))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if gotID != id || gotAddr != addr {
			t.Fatalf("round trip (%d, %q) -> (%d, %q)", id, addr, gotID, gotAddr)
		}
	})
}

// encodeFrame builds one well-formed checksummed frame, mirroring
// conn.writeFrame without a socket.
func encodeFrame(kind byte, payload []byte) []byte {
	var buf bytes.Buffer
	c := &conn{bw: bufio.NewWriter(&buf)}
	if err := c.writeFrame(kind, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func crc32Of(parts ...[]byte) uint32 {
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	return crc
}

// FuzzFrameDecode drives the checksummed-frame decoder with mutated byte
// streams. The invariant under fuzzing: a frame that decodes without
// error carries exactly the bytes the checksum vouches for, and any
// truncation, bit flip, or foreign version yields an error — never a
// panic, never a silently misparsed frame.
func FuzzFrameDecode(f *testing.F) {
	f.Add(encodeFrame(fHeartbeat, nil), -1, uint8(0))
	f.Add(encodeFrame(fBatch, batchPayload(2, 9, 1, nil)), 12, uint8(0x40))
	f.Add(encodeFrame(fStart, u64Payload(4, 7)), 4, uint8(0x01))
	f.Add(encodeFrame(fStepFailed, stepFailedPayload(1, "boom")), 0, uint8(0xff))
	f.Add(encodeFrame(fMigrateOut, migrateReqPayload(3, 8)), 8, uint8(0x20))
	f.Add(encodeFrame(fMigrateData, migrateBlobPayload(3, []byte{9, 9, 9})), 14, uint8(0x04))
	f.Add(encodeFrame(fMigrateIn, migrateBlobPayload(1, []byte{7})), -1, uint8(0))
	f.Add(encodeFrame(fMigrateDone, ivPayload(6)), 10, uint8(0x80))
	f.Add(encodeFrame(fRouting, routingPayload([]int{0, 2, 1})), 11, uint8(0x02))
	f.Add(encodeFrame(fJoin, joinPayload(4, 2, "127.0.0.1:7")), 9, uint8(0x08))
	f.Add(encodeFrame(fRoutingOver, nil), 5, uint8(0x10))
	f.Fuzz(func(t *testing.T, stream []byte, flip int, mask uint8) {
		if flip >= 0 && flip < len(stream) && mask != 0 {
			stream = append([]byte(nil), stream...)
			stream[flip] ^= mask
		}
		kind, payload, err := readFrameFrom(bytes.NewReader(stream))
		if err != nil {
			return
		}
		// A successful decode must round-trip: re-encoding what was read
		// reproduces a prefix of the input stream bit for bit.
		re := encodeFrame(kind, payload)
		if len(re) > len(stream) || !bytes.Equal(re, stream[:len(re)]) {
			t.Fatalf("decoded frame (kind %d, %d payload bytes) does not re-encode to the input prefix", kind, len(payload))
		}
	})
}

// TestFrameDecodeRejectsCorruption pins the three corruption classes the
// fuzzer explores: truncation, bit flips, and wrong protocol versions
// must all error out, and flips plus version skew must be attributed to
// the right sentinel.
func TestFrameDecodeRejectsCorruption(t *testing.T) {
	// One data-plane frame and one of each elastic-membership payload
	// shape, the empty one included: the CRC32C framing guarantees hold
	// for migration traffic too.
	frames := map[string][]byte{
		"batch":        encodeFrame(fBatch, batchPayload(3, 1, 2, nil)),
		"migrate-out":  encodeFrame(fMigrateOut, migrateReqPayload(1, 4)),
		"migrate-data": encodeFrame(fMigrateData, migrateBlobPayload(1, []byte{0xde, 0xad})),
		"routing":      encodeFrame(fRouting, routingPayload([]int{1, 0})),
		"routing-over": encodeFrame(fRoutingOver, nil),
	}
	for name, frame := range frames {
		// Truncations at every boundary.
		for n := 0; n < len(frame); n++ {
			if _, _, err := readFrameFrom(bytes.NewReader(frame[:n])); err == nil {
				t.Fatalf("%s: decoder accepted a frame truncated to %d of %d bytes", name, n, len(frame))
			}
		}
		// A flip in any byte past the length prefix must trip the checksum
		// (or the version check, for byte 4).
		for i := 4; i < len(frame); i++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 0x10
			_, _, err := readFrameFrom(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("%s: decoder accepted a frame with byte %d flipped", name, i)
			}
			if !frameCorrupt(err) {
				t.Fatalf("%s: flip at byte %d: got %v, want a corruption error", name, i, err)
			}
		}
	}
	// A foreign protocol version is rejected as such even with a valid
	// checksum over the foreign bytes.
	mut := append([]byte(nil), frames["batch"]...)
	mut[4] = protoVersion + 1
	crc := crc32Of(mut[4:6], mut[10:])
	binary.LittleEndian.PutUint32(mut[6:], crc)
	_, _, err := readFrameFrom(bytes.NewReader(mut))
	if err == nil || !frameCorrupt(err) {
		t.Fatalf("foreign version: got %v, want a version error", err)
	}
}
