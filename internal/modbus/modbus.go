// Package modbus implements a Modbus/TCP-class SCADA field protocol: MBAP
// framing, the common register/coil function codes, a thread-safe data
// model, and a client/server pair that run over any net.Conn.
//
// Beyond the standard dialect it implements a *diversified* dialect
// (function-code permutation + authenticated frames derived from a shared
// key). This is the repository's concrete stand-in for the paper's
// component diversification at the protocol level: a worm carrying a
// standard-dialect exploit payload fails against endpoints speaking a
// diversified dialect, exactly the "different machines need different
// exploits" effect (experiment E10 quantifies it).
package modbus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol limits from the Modbus specification.
const (
	maxPDUSize     = 253
	maxReadCount   = 125 // registers per read
	maxWriteCount  = 123 // registers per write
	mbapHeaderSize = 7
)

// Function codes (subset).
const (
	FuncReadCoils          byte = 0x01
	FuncReadDiscreteInputs byte = 0x02
	FuncReadHolding        byte = 0x03
	FuncReadInput          byte = 0x04
	FuncWriteSingleCoil    byte = 0x05
	FuncWriteSingleReg     byte = 0x06
	FuncWriteMultipleRegs  byte = 0x10
)

// exceptionFlag marks a response PDU as an exception.
const exceptionFlag byte = 0x80

// Exception codes.
const (
	ExIllegalFunction    byte = 0x01
	ExIllegalDataAddress byte = 0x02
	ExIllegalDataValue   byte = 0x03
)

// Errors returned by the codec and client.
var (
	ErrFrameTooLarge = errors.New("modbus: frame exceeds maximum PDU size")
	ErrShortFrame    = errors.New("modbus: short frame")
	ErrBadProtocolID = errors.New("modbus: bad MBAP protocol identifier")
	ErrTxnMismatch   = errors.New("modbus: transaction ID mismatch")
	ErrDialectAuth   = errors.New("modbus: dialect authentication failure")
)

// ExceptionError is a Modbus exception response surfaced by the client.
type ExceptionError struct {
	Function byte // original function code
	Code     byte
}

func (e *ExceptionError) Error() string {
	return fmt.Sprintf("modbus: exception 0x%02x for function 0x%02x", e.Code, e.Function)
}

// PDU is a protocol data unit: function code plus payload.
type PDU struct {
	Function byte
	Data     []byte
}

// IsException reports whether the PDU is an exception response.
func (p PDU) IsException() bool { return p.Function&exceptionFlag != 0 }

// ExceptionPDU builds an exception response for the given request
// function.
func ExceptionPDU(reqFunction, code byte) PDU {
	return PDU{Function: reqFunction | exceptionFlag, Data: []byte{code}}
}

// Frame is a full MBAP-framed message.
type Frame struct {
	Transaction uint16
	Unit        byte
	PDU         PDU
}

// EncodeFrame serializes a frame to wire format.
func EncodeFrame(f Frame) ([]byte, error) {
	pduLen := 1 + len(f.PDU.Data)
	if pduLen > maxPDUSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, pduLen)
	}
	buf := make([]byte, mbapHeaderSize+pduLen)
	binary.BigEndian.PutUint16(buf[0:2], f.Transaction)
	binary.BigEndian.PutUint16(buf[2:4], 0) // protocol identifier
	binary.BigEndian.PutUint16(buf[4:6], uint16(1+pduLen))
	buf[6] = f.Unit
	buf[7] = f.PDU.Function
	copy(buf[8:], f.PDU.Data)
	return buf, nil
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [mbapHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	if binary.BigEndian.Uint16(hdr[2:4]) != 0 {
		return Frame{}, ErrBadProtocolID
	}
	length := binary.BigEndian.Uint16(hdr[4:6])
	if length < 2 {
		return Frame{}, ErrShortFrame
	}
	if int(length)-1 > maxPDUSize {
		return Frame{}, fmt.Errorf("%w: advertised %d bytes", ErrFrameTooLarge, length-1)
	}
	body := make([]byte, length-1) // length counts the unit byte
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, err
	}
	if len(body) < 1 {
		return Frame{}, ErrShortFrame
	}
	return Frame{
		Transaction: binary.BigEndian.Uint16(hdr[0:2]),
		Unit:        hdr[6],
		PDU:         PDU{Function: body[0], Data: body[1:]},
	}, nil
}

// ---- Request/response payload builders and parsers. ----

// ReadRequest builds the payload of a read request (holding/input/coils).
func ReadRequest(start, count uint16) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint16(b[0:2], start)
	binary.BigEndian.PutUint16(b[2:4], count)
	return b
}

// ParseReadRequest decodes a read request payload.
func ParseReadRequest(data []byte) (start, count uint16, err error) {
	if len(data) != 4 {
		return 0, 0, ErrShortFrame
	}
	return binary.BigEndian.Uint16(data[0:2]), binary.BigEndian.Uint16(data[2:4]), nil
}

// RegistersToBytes serializes register values for a read response.
func RegistersToBytes(regs []uint16) []byte {
	out := make([]byte, 1+2*len(regs))
	out[0] = byte(2 * len(regs))
	for i, r := range regs {
		binary.BigEndian.PutUint16(out[1+2*i:], r)
	}
	return out
}

// BytesToRegisters parses a read-registers response payload.
func BytesToRegisters(data []byte) ([]uint16, error) {
	if len(data) < 1 || int(data[0]) != len(data)-1 || data[0]%2 != 0 {
		return nil, ErrShortFrame
	}
	regs := make([]uint16, data[0]/2)
	for i := range regs {
		regs[i] = binary.BigEndian.Uint16(data[1+2*i:])
	}
	return regs, nil
}

// CoilsToBytes packs coil states for a read response.
func CoilsToBytes(coils []bool) []byte {
	nBytes := (len(coils) + 7) / 8
	out := make([]byte, 1+nBytes)
	out[0] = byte(nBytes)
	for i, c := range coils {
		if c {
			out[1+i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// BytesToCoils unpacks count coils from a read response payload.
func BytesToCoils(data []byte, count int) ([]bool, error) {
	if len(data) < 1 || int(data[0]) != len(data)-1 {
		return nil, ErrShortFrame
	}
	if (count+7)/8 != int(data[0]) {
		return nil, ErrShortFrame
	}
	out := make([]bool, count)
	for i := range out {
		out[i] = data[1+i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}

// WriteSingleRequest builds the payload for write-single-register or
// write-single-coil (value 0xFF00/0x0000 for coils per spec).
func WriteSingleRequest(addr, value uint16) []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint16(b[0:2], addr)
	binary.BigEndian.PutUint16(b[2:4], value)
	return b
}

// ParseWriteSingle decodes a write-single payload (request and echo
// response share the format).
func ParseWriteSingle(data []byte) (addr, value uint16, err error) {
	if len(data) != 4 {
		return 0, 0, ErrShortFrame
	}
	return binary.BigEndian.Uint16(data[0:2]), binary.BigEndian.Uint16(data[2:4]), nil
}

// WriteMultipleRequest builds the payload for write-multiple-registers.
func WriteMultipleRequest(start uint16, values []uint16) []byte {
	b := make([]byte, 5+2*len(values))
	binary.BigEndian.PutUint16(b[0:2], start)
	binary.BigEndian.PutUint16(b[2:4], uint16(len(values)))
	b[4] = byte(2 * len(values))
	for i, v := range values {
		binary.BigEndian.PutUint16(b[5+2*i:], v)
	}
	return b
}

// ParseWriteMultiple decodes a write-multiple-registers request payload.
func ParseWriteMultiple(data []byte) (start uint16, values []uint16, err error) {
	if len(data) < 5 {
		return 0, nil, ErrShortFrame
	}
	start = binary.BigEndian.Uint16(data[0:2])
	count := binary.BigEndian.Uint16(data[2:4])
	byteCount := int(data[4])
	if int(count) > maxWriteCount || byteCount != 2*int(count) || len(data) != 5+byteCount {
		return 0, nil, ErrShortFrame
	}
	values = make([]uint16, count)
	for i := range values {
		values[i] = binary.BigEndian.Uint16(data[5+2*i:])
	}
	return start, values, nil
}
