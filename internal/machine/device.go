package machine

import "fmt"

// Device is a memory-mapped peripheral occupying one MMIO page. MMIO is
// word-addressed: the bus only issues 32-bit accesses to devices.
type Device interface {
	// Name identifies the device in diagnostics.
	Name() string
	// Read returns the value of the register at byte offset off.
	Read(off uint32) uint32
	// Write stores v into the register at byte offset off.
	Write(off uint32, v uint32)
}

// IRQSource is implemented by devices that assert interrupt lines as
// simulated time passes. Due is polled by Machine.Charge; a device
// should advance its internal schedule when it reports due so repeated
// polls terminate.
type IRQSource interface {
	Due(cycle uint64) (line int, due bool)
}

// irqScheduler is optionally implemented by IRQSources that can predict
// the earliest cycle at which Due could next report true. Charge uses
// it to skip the per-instruction poll between events; a source that
// also implements scheduleNotifier tells the machine when its schedule
// changes so the prediction is never stale. Sources without it are
// simply polled every Charge, as before.
type irqScheduler interface {
	// nextDue returns the earliest cycle Due could report true, and
	// whether the source is scheduled to fire at all. It has no side
	// effects.
	nextDue() (cycle uint64, scheduled bool)
}

// scheduleNotifier is optionally implemented by IRQSources to receive a
// hook they must call whenever their firing schedule changes (e.g. a
// register write enabling or retiming them).
type scheduleNotifier interface {
	setScheduleHook(func())
}

// Standard device page numbers (page n occupies MMIOBase + n*MMIOWindow).
const (
	PageTimer    = 0
	PageUART     = 1
	PagePedal    = 2
	PageRadar    = 3
	PageKeyStore = 4
	PageEngine   = 5
	PageNIC      = 6
)

// DeviceAddr returns the base address of a device page.
func DeviceAddr(page uint32) uint32 { return MMIOBase + page*MMIOWindow }

// MapDevice installs a device at the given page. Mapping a page twice
// panics: the memory map is fixed at platform construction time.
func (m *Machine) MapDevice(page uint32, d Device) {
	if _, dup := m.devices[page]; dup {
		panic(fmt.Sprintf("machine: device page %d mapped twice", page))
	}
	m.devices[page] = d
	if s, ok := d.(IRQSource); ok {
		m.sources = append(m.sources, s)
		if n, ok := s.(scheduleNotifier); ok {
			n.setScheduleHook(func() { m.pollAt = 0 })
		}
		m.pollAt = 0
	}
}

// Device returns the device mapped at a page, if any.
func (m *Machine) Device(page uint32) (Device, bool) {
	d, ok := m.devices[page]
	return d, ok
}

// --- Timer ------------------------------------------------------------------

// Timer register offsets.
const (
	TimerRegCtrl   = 0x00 // bit 0: enable
	TimerRegPeriod = 0x04 // tick period in cycles
	TimerRegCount  = 0x08 // ticks fired since reset (read-only)
)

// Timer is the periodic tick source driving the RTOS scheduler. When
// enabled it asserts IRQTimer every Period cycles of simulated time.
type Timer struct {
	clock    func() uint64
	enabled  bool
	period   uint64
	nextFire uint64
	fired    uint64
	changed  func() // schedule-change hook, see scheduleNotifier
}

// NewTimer creates a timer reading simulated time from clock.
func NewTimer(clock func() uint64) *Timer {
	return &Timer{clock: clock}
}

// Name implements Device.
func (t *Timer) Name() string { return "timer" }

// Read implements Device.
func (t *Timer) Read(off uint32) uint32 {
	switch off {
	case TimerRegCtrl:
		if t.enabled {
			return 1
		}
		return 0
	case TimerRegPeriod:
		return uint32(t.period)
	case TimerRegCount:
		return uint32(t.fired)
	default:
		return 0
	}
}

// Write implements Device.
func (t *Timer) Write(off uint32, v uint32) {
	switch off {
	case TimerRegCtrl:
		was := t.enabled
		t.enabled = v&1 != 0
		if t.enabled && !was && t.period > 0 {
			t.nextFire = t.clock() + t.period
		}
	case TimerRegPeriod:
		t.period = uint64(v)
		if t.enabled && t.period > 0 {
			t.nextFire = t.clock() + t.period
		}
	}
	if t.changed != nil {
		t.changed()
	}
}

// setScheduleHook implements scheduleNotifier.
func (t *Timer) setScheduleHook(f func()) { t.changed = f }

// nextDue implements irqScheduler.
func (t *Timer) nextDue() (uint64, bool) {
	if !t.enabled || t.period == 0 {
		return 0, false
	}
	return t.nextFire, true
}

// Due implements IRQSource.
func (t *Timer) Due(cycle uint64) (int, bool) {
	if !t.enabled || t.period == 0 || cycle < t.nextFire {
		return 0, false
	}
	t.fired++
	t.nextFire += t.period
	if t.nextFire <= cycle {
		// Catch up after a long uninterruptible stretch, but never fire
		// more than once per poll: ticks lost to overruns are counted as
		// a single pending interrupt, like real tick hardware.
		t.nextFire = cycle + t.period
	}
	return IRQTimer, true
}

// NextFire returns the cycle of the next pending tick, or 0 if the
// timer is disabled. The kernel's idle loop uses it to sleep the
// simulation forward to the next event.
func (t *Timer) NextFire() uint64 {
	if !t.enabled || t.period == 0 {
		return 0
	}
	return t.nextFire
}

// --- UART -------------------------------------------------------------------

// UART register offsets.
const (
	UARTRegTx    = 0x00 // write: transmit low byte
	UARTRegCount = 0x04 // read: bytes transmitted
)

// UART is a transmit-only serial port that captures output for
// inspection by tests and examples.
type UART struct {
	out []byte
}

// NewUART creates an empty UART.
func NewUART() *UART { return &UART{} }

// Name implements Device.
func (u *UART) Name() string { return "uart" }

// Read implements Device.
func (u *UART) Read(off uint32) uint32 {
	if off == UARTRegCount {
		return uint32(len(u.out))
	}
	return 0
}

// Write implements Device.
func (u *UART) Write(off uint32, v uint32) {
	if off == UARTRegTx {
		u.out = append(u.out, byte(v))
	}
}

// String returns everything transmitted so far.
func (u *UART) String() string { return string(u.out) }

// --- Sensors ----------------------------------------------------------------

// Sensor register offsets.
const (
	SensorRegValue  = 0x00 // current sample
	SensorRegSeq    = 0x04 // sample sequence number
	SensorRegPeriod = 0x08 // sample period in cycles (read-only)
)

// Sensor is a synthetic periodic sensor whose sample is a deterministic
// function of simulated time — a triangle wave between Min and Max. It
// stands in for the accelerator-pedal and radar sensors of the paper's
// adaptive cruise control use case (Fig. 2); what matters for the
// reproduction is that tasks sample fresh values under deadline, not the
// physics behind the values.
type Sensor struct {
	name   string
	clock  func() uint64
	period uint64 // sample period in cycles
	min    uint32
	max    uint32
}

// NewSensor creates a sensor producing a triangle wave in [min, max]
// with a new sample every period cycles.
func NewSensor(name string, clock func() uint64, period uint64, min, max uint32) *Sensor {
	if period == 0 {
		period = 1
	}
	if max < min {
		min, max = max, min
	}
	return &Sensor{name: name, clock: clock, period: period, min: min, max: max}
}

// Name implements Device.
func (s *Sensor) Name() string { return s.name }

// Sample returns the deterministic sample for sequence number seq.
func (s *Sensor) Sample(seq uint64) uint32 {
	span := uint64(s.max - s.min)
	if span == 0 {
		return s.min
	}
	phase := seq % (2 * span)
	if phase <= span {
		return s.min + uint32(phase)
	}
	return s.min + uint32(2*span-phase)
}

// Read implements Device.
func (s *Sensor) Read(off uint32) uint32 {
	seq := s.clock() / s.period
	switch off {
	case SensorRegValue:
		return s.Sample(seq)
	case SensorRegSeq:
		return uint32(seq)
	case SensorRegPeriod:
		return uint32(s.period)
	default:
		return 0
	}
}

// Write implements Device (sensors are read-only).
func (s *Sensor) Write(uint32, uint32) {}

// --- Network interface ---------------------------------------------------------

// NIC register offsets.
const (
	NICRegRxCount = 0x00 // read: frames received
	NICRegRate    = 0x04 // write: injected frame interval in cycles (0 = off)
)

// NIC models a network interface whose receive path raises IRQExt0.
// The frame source is synthetic: writing a rate makes frames "arrive"
// every N cycles — the knob the DoS experiments turn ("denial of
// service attacks are domain specific, e.g. network flooding if a
// network interface exists", §5).
type NIC struct {
	clock    func() uint64
	interval uint64
	nextRx   uint64
	rx       uint64
	changed  func() // schedule-change hook, see scheduleNotifier
}

// NewNIC creates a quiet network interface.
func NewNIC(clock func() uint64) *NIC { return &NIC{clock: clock} }

// Name implements Device.
func (n *NIC) Name() string { return "nic" }

// Read implements Device.
func (n *NIC) Read(off uint32) uint32 {
	switch off {
	case NICRegRxCount:
		return uint32(n.rx)
	case NICRegRate:
		return uint32(n.interval)
	default:
		return 0
	}
}

// Write implements Device.
func (n *NIC) Write(off uint32, v uint32) {
	if off != NICRegRate {
		return
	}
	n.interval = uint64(v)
	if n.interval > 0 {
		n.nextRx = n.clock() + n.interval
	}
	if n.changed != nil {
		n.changed()
	}
}

// setScheduleHook implements scheduleNotifier.
func (n *NIC) setScheduleHook(f func()) { n.changed = f }

// nextDue implements irqScheduler.
func (n *NIC) nextDue() (uint64, bool) {
	if n.interval == 0 {
		return 0, false
	}
	return n.nextRx, true
}

// Due implements IRQSource.
func (n *NIC) Due(cycle uint64) (int, bool) {
	if n.interval == 0 || cycle < n.nextRx {
		return 0, false
	}
	n.rx++
	n.nextRx += n.interval
	if n.nextRx <= cycle {
		n.nextRx = cycle + n.interval
	}
	return IRQExt0, true
}

// --- Key store ---------------------------------------------------------------

// KeyStore register offsets: the platform key is readable word-by-word
// at offsets 0..KeySize-4.
const (
	// KeySize is the platform key length in bytes.
	KeySize = 20
)

// KeyStore exposes the platform key Kp over MMIO. Access control is not
// the device's job: secure boot installs a locked EA-MPU rule granting
// read access to the trusted components only, which is exactly how the
// paper states Kp is protected ("Access to this key is controlled by
// the EA-MPU").
type KeyStore struct {
	key [KeySize]byte
}

// NewKeyStore creates a key store holding key (padded/truncated to
// KeySize bytes).
func NewKeyStore(key []byte) *KeyStore {
	ks := &KeyStore{}
	copy(ks.key[:], key)
	return ks
}

// Name implements Device.
func (k *KeyStore) Name() string { return "keystore" }

// Read implements Device.
func (k *KeyStore) Read(off uint32) uint32 {
	if off+4 > KeySize {
		return 0
	}
	return uint32(k.key[off]) | uint32(k.key[off+1])<<8 |
		uint32(k.key[off+2])<<16 | uint32(k.key[off+3])<<24
}

// Write implements Device (the key is immutable).
func (k *KeyStore) Write(uint32, uint32) {}

// --- Engine actuator ----------------------------------------------------------

// Engine register offsets.
const (
	EngineRegSpeed = 0x00 // write: commanded speed; read: last command
	EngineRegCount = 0x04 // read: number of commands received
)

// Engine is the speed actuator of the cruise-control use case: it
// records every command with its cycle timestamp so the harness can
// verify that the control task met its deadlines. The count register
// counts every command received, also those past the log's limit.
type Engine struct {
	clock    func() uint64
	last     uint32
	received uint32
	commands []EngineCommand
	limit    int
}

// EngineCommand is one recorded actuation.
type EngineCommand struct {
	Cycle uint64
	Value uint32
}

// NewEngine creates an engine actuator that retains up to limit
// commands (0 means unlimited).
func NewEngine(clock func() uint64, limit int) *Engine {
	return &Engine{clock: clock, limit: limit}
}

// Name implements Device.
func (e *Engine) Name() string { return "engine" }

// Read implements Device.
func (e *Engine) Read(off uint32) uint32 {
	switch off {
	case EngineRegSpeed:
		return e.last
	case EngineRegCount:
		return e.received
	default:
		return 0
	}
}

// Write implements Device.
func (e *Engine) Write(off uint32, v uint32) {
	if off != EngineRegSpeed {
		return
	}
	e.last = v
	e.received++
	if e.limit == 0 || len(e.commands) < e.limit {
		e.commands = append(e.commands, EngineCommand{Cycle: e.clock(), Value: v})
	}
}

// Commands returns the recorded actuations.
func (e *Engine) Commands() []EngineCommand { return e.commands }
