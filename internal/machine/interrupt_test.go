package machine

import "repro/internal/isa"

// EnterInterrupt is the bare-machine model of interrupt delivery:
// push EFLAGS and EIP onto the current stack, clear the global
// interrupt-enable flag, and vector through the IDT. It returns the
// handler address from the IDT. Only this package's differential tests
// use it; the rtos kernel banks the whole frame through its checked
// context-save path instead.
func (m *Machine) EnterInterrupt(vector int) (handler uint32, err error) {
	m.Charge(CostHWException)
	sp := m.regs[isa.SP]
	// The pushes bypass the EA-MPU and nothing checks SP first: the
	// caller owns the stack it interrupts.
	if err := m.RawWrite32(sp-4, m.eflags); err != nil {
		return 0, &Fault{PC: m.eip, Why: "exception push EFLAGS", Wrap: err}
	}
	if err := m.RawWrite32(sp-8, m.eip); err != nil {
		return 0, &Fault{PC: m.eip, Why: "exception push EIP", Wrap: err}
	}
	m.regs[isa.SP] = sp - 8
	m.intEnable = false
	return m.IDTHandler(vector), nil
}

// ReturnFromInterrupt undoes EnterInterrupt's stack frame for the
// current context: pop EIP and EFLAGS and re-enable interrupts.
func (m *Machine) ReturnFromInterrupt() error {
	sp := m.regs[isa.SP]
	eip, err := m.RawRead32(sp)
	if err != nil {
		return err
	}
	eflags, err := m.RawRead32(sp + 4)
	if err != nil {
		return err
	}
	m.eip = eip
	m.eflags = eflags
	m.regs[isa.SP] = sp + 8
	m.intEnable = true
	return nil
}
