package guest

// Device models an external data source/sink (disk, network peer). Guest
// threads never touch a device directly; they ask the kernel to transfer data
// between the device and guest memory, which surfaces in the event stream as
// kernelWrite (device data loaded into memory) and kernelRead (memory data
// sent to the device) events — the paper's Section 4.3 model of external
// input.
type Device struct {
	m    *Machine
	name string

	// gen produces the i-th word of the device's input stream. Nil means
	// the device yields a default deterministic stream.
	gen  func(i uint64) uint64
	next uint64

	written  uint64 // words ever sent to the device
	checksum uint64 // running checksum of words sent, for assertions
}

// NewDevice returns a device whose input stream is defined by gen; a nil gen
// selects a deterministic mixed-congruential stream.
func (m *Machine) NewDevice(name string, gen func(i uint64) uint64) *Device {
	if gen == nil {
		gen = func(i uint64) uint64 {
			x := i*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
			x ^= x >> 31
			return x
		}
	}
	return &Device{m: m, name: name, gen: gen}
}

// Consumed returns how many words of the device's input stream have been
// read so far.
func (d *Device) Consumed() uint64 { return d.next }

// Written returns how many words have been sent to the device.
func (d *Device) Written() uint64 { return d.written }

// Checksum returns a checksum over all words sent to the device.
func (d *Device) Checksum() uint64 { return d.checksum }

// ReadDevice asks the kernel to fill the n memory cells starting at base
// with the next n words of d's input stream (e.g. a read(2) into a buffer).
// Each filled cell surfaces as a kernelWrite event; the cells are not
// considered read by the thread until the thread actually loads them.
func (th *Thread) ReadDevice(d *Device, base Addr, n int) {
	for i := 0; i < n; i++ {
		th.step()
		a := base + Addr(i)
		th.m.mem.store(a, d.gen(d.next))
		d.next++
		th.m.emitKernelWrite(a)
	}
}

// WriteDevice asks the kernel to send the n memory cells starting at base to
// the device (e.g. a write(2) from a buffer). Each cell surfaces as a
// kernelRead event: the kernel reads guest memory on the thread's behalf.
func (th *Thread) WriteDevice(d *Device, base Addr, n int) {
	for i := 0; i < n; i++ {
		th.step()
		a := base + Addr(i)
		v := th.m.mem.load(a)
		d.written++
		d.checksum = d.checksum*1099511628211 + v
		th.m.emitKernelRead(a)
	}
}
