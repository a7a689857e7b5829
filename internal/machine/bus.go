package machine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/eampu"
)

// The bus: every software-visible memory access funnels through here and
// is checked against the EA-MPU using the current execution context
// (m.execPC). ReadWords/WriteWords are the checked bulk transfer the
// trusted components move whole context frames and measurement blocks
// with. Raw* variants bypass the MPU and model hardware-internal
// accesses (the exception engine, secure boot) and test instrumentation.

// BusError reports an access outside mapped memory or with bad alignment.
type BusError struct {
	Addr uint32
	Why  string
}

func (e *BusError) Error() string {
	return fmt.Sprintf("machine: bus error at %#x: %s", e.Addr, e.Why)
}

func (m *Machine) ramIndex(addr, size uint32) (int, error) {
	if addr < RAMBase {
		return 0, &BusError{Addr: addr, Why: "unmapped low memory"}
	}
	off := addr - RAMBase
	if uint64(off)+uint64(size) > uint64(len(m.ram)) {
		return 0, &BusError{Addr: addr, Why: "beyond end of RAM"}
	}
	return int(off), nil
}

func (m *Machine) isMMIO(addr uint32) bool { return addr >= MMIOBase }

func (m *Machine) deviceAt(addr uint32) (Device, uint32, error) {
	page := (addr - MMIOBase) / MMIOWindow
	dev, ok := m.devices[page]
	if !ok {
		return nil, 0, &BusError{Addr: addr, Why: "no device mapped"}
	}
	return dev, addr & (MMIOWindow - 1), nil
}

// Read32 performs an EA-MPU-checked 32-bit read in the current execution
// context.
func (m *Machine) Read32(addr uint32) (uint32, error) {
	if off, ok := m.wordsFast(eampu.AccessRead, addr, 1); ok {
		return binary.LittleEndian.Uint32(m.ram[off:]), nil
	}
	if addr%4 != 0 {
		return 0, &BusError{Addr: addr, Why: "misaligned 32-bit read"}
	}
	if err := m.checkData(eampu.AccessRead, addr, 4); err != nil {
		return 0, err
	}
	return m.RawRead32(addr)
}

// Write32 performs an EA-MPU-checked 32-bit write in the current
// execution context.
func (m *Machine) Write32(addr, v uint32) error {
	if off, ok := m.wordsFast(eampu.AccessWrite, addr, 1); ok {
		m.noteRAMWrite(off, 4)
		binary.LittleEndian.PutUint32(m.ram[off:], v)
		return nil
	}
	if addr%4 != 0 {
		return &BusError{Addr: addr, Why: "misaligned 32-bit write"}
	}
	if err := m.checkData(eampu.AccessWrite, addr, 4); err != nil {
		return err
	}
	return m.RawWrite32(addr, v)
}

// Read8 performs an EA-MPU-checked byte read.
func (m *Machine) Read8(addr uint32) (byte, error) {
	if err := m.checkData(eampu.AccessRead, addr, 1); err != nil {
		return 0, err
	}
	if m.isMMIO(addr) {
		return 0, &BusError{Addr: addr, Why: "byte access to MMIO"}
	}
	i, err := m.ramIndex(addr, 1)
	if err != nil {
		return 0, err
	}
	return m.ram[i], nil
}

// Write8 performs an EA-MPU-checked byte write.
func (m *Machine) Write8(addr uint32, v byte) error {
	if err := m.checkData(eampu.AccessWrite, addr, 1); err != nil {
		return err
	}
	if m.isMMIO(addr) {
		return &BusError{Addr: addr, Why: "byte access to MMIO"}
	}
	i, err := m.ramIndex(addr, 1)
	if err != nil {
		return err
	}
	m.noteRAMWrite(i, 1)
	m.ram[i] = v
	return nil
}

// RawRead32 reads 32 bits bypassing the EA-MPU (hardware-internal).
func (m *Machine) RawRead32(addr uint32) (uint32, error) {
	if m.isMMIO(addr) {
		dev, off, err := m.deviceAt(addr)
		if err != nil {
			return 0, err
		}
		return dev.Read(off), nil
	}
	i, err := m.ramIndex(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.ram[i:]), nil
}

// RawWrite32 writes 32 bits bypassing the EA-MPU (hardware-internal).
func (m *Machine) RawWrite32(addr, v uint32) error {
	if m.isMMIO(addr) {
		dev, off, err := m.deviceAt(addr)
		if err != nil {
			return err
		}
		dev.Write(off, v)
		return nil
	}
	i, err := m.ramIndex(addr, 4)
	if err != nil {
		return err
	}
	m.noteRAMWrite(i, 4)
	binary.LittleEndian.PutUint32(m.ram[i:], v)
	return nil
}

// LoadBytes copies b into RAM at addr, bypassing the EA-MPU. Secure boot
// and the (trusted) loader use it; tests use it to stage memory.
func (m *Machine) LoadBytes(addr uint32, b []byte) error {
	i, err := m.ramIndex(addr, uint32(len(b)))
	if err != nil {
		return err
	}
	m.noteRAMWrite(i, len(b))
	copy(m.ram[i:], b)
	return nil
}

// RAMView returns a view aliasing [addr, addr+n) of RAM, bypassing the
// EA-MPU, without copying. Callers must treat the slice as read-only
// and must not hold it across a mutation of the underlying memory; the
// fetch path and measurement code use it to avoid per-access
// allocation.
func (m *Machine) RAMView(addr, n uint32) ([]byte, error) {
	i, err := m.ramIndex(addr, n)
	if err != nil {
		return nil, err
	}
	return m.ram[i : i+int(n) : i+int(n)], nil
}

// ReadBytes copies n bytes of RAM starting at addr, bypassing the EA-MPU.
func (m *Machine) ReadBytes(addr, n uint32) ([]byte, error) {
	view, err := m.RAMView(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, view)
	return out, nil
}

// ZeroBytes clears n bytes of RAM starting at addr, bypassing the EA-MPU.
func (m *Machine) ZeroBytes(addr, n uint32) error {
	i, err := m.ramIndex(addr, n)
	if err != nil {
		return err
	}
	m.noteRAMWrite(i, int(n))
	for j := 0; j < int(n); j++ {
		m.ram[i+j] = 0
	}
	return nil
}

// ReadWords reads len(dst) words through the EA-MPU in the current
// execution context, dst[i] from addr+4i; WriteWords stores src[i] to
// addr+4i. Trusted components move whole context frames and
// measurement blocks with them. On the production engine a span that
// one decision-cache hit allows is copied in bulk. Any other span goes
// through Read32 in ascending order, or Write32 highest address first
// like a push sequence, so a fault names the same word, leaves the same
// partial write and counts the same violations as that word loop.
func (m *Machine) ReadWords(addr uint32, dst []uint32) error {
	if off, ok := m.wordsFast(eampu.AccessRead, addr, len(dst)); ok {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(m.ram[off+4*i:])
		}
		return nil
	}
	for i := range dst {
		v, err := m.Read32(addr + uint32(4*i))
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// WriteWords is the store-side counterpart of ReadWords.
func (m *Machine) WriteWords(addr uint32, src []uint32) error {
	if off, ok := m.wordsFast(eampu.AccessWrite, addr, len(src)); ok {
		m.noteRAMWrite(off, 4*len(src))
		for i, v := range src {
			binary.LittleEndian.PutUint32(m.ram[off+4*i:], v)
		}
		return nil
	}
	for i := len(src) - 1; i >= 0; i-- {
		if err := m.Write32(addr+uint32(4*i), src[i]); err != nil {
			return err
		}
	}
	return nil
}
