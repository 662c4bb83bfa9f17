package main

import (
	"math"
	"net"
	"time"
)

// The machine this benchmark was defined on is a shared 2-vCPU VM whose
// speed moves with what its neighbours do: the same serial training takes
// 0.29 s or 0.52 s depending on the minute, and every other time moves
// with it (users_per_s of identical code ranged 2,650–6,170 over thirty
// runs). No bound below that swing could gate anything.
//
// So a run measures the machine beside the program. Two fixed kernels
// owned by the benchmark — an exp-heavy arithmetic loop and a loopback
// ping-pong between two goroutines — are timed at every phase boundary.
// Their mean times over the run, each relative to its nominal time, give
// one factor (their geometric mean) saying how much slower than nominal
// the machine ran during this run; every end-to-end time is divided by it
// and every rate multiplied. Over thirty runs on a noisy hour that cut
// the spread of cold_train_s from 0.27 to 0.09 and of users_per_s from
// 0.38 to 0.22. The factor is a mean, not a median: the machine flips
// between a fast and a slow state within a second, and what a phase of
// half a second feels is the share of each.
//
// Reported values are therefore "at reference machine speed". The values
// as measured are printed beside them as raw.<metric>, and the factor as
// loadgen.machine_factor.

// Nominal kernel times: the seed commit's machine in its fast state.
// They only fix the scale; what matters is that they never change.
const (
	computeNominalMs = 7.4
	echoNominalMs    = 6.2
)

var calibSink float64

// computeKernel is a fixed exp-heavy loop, the arithmetic the score sweep
// and the training kernels are made of.
func computeKernel() {
	s := 0.0
	for i := 0; i < 1_000_000; i++ {
		s += 1 - math.Exp(-float64(i&1023)*1e-3)
	}
	calibSink += s
}

// machine samples the two kernels; the zero value is not usable.
type machine struct {
	conn    net.Conn
	stop    func()
	compute []float64 // ms per sample
	echo    []float64
}

// newMachine starts the echo peer: a goroutine answering every message
// on a loopback TCP connection, so one exchange costs two goroutine
// wake-ups through the netpoller, like a request.
func newMachine() (*machine, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = ln.Close()
		<-done
		return nil, err
	}
	m := &machine{conn: conn}
	m.stop = func() { _ = conn.Close(); _ = ln.Close(); <-done }
	return m, nil
}

// sample times both kernels once, about 15 ms together.
func (m *machine) sample() error {
	t0 := time.Now()
	computeKernel()
	m.compute = append(m.compute, ms(time.Since(t0)))
	t0 = time.Now()
	buf := make([]byte, 32)
	for i := 0; i < 1000; i++ {
		if _, err := m.conn.Write(buf); err != nil {
			return err
		}
		if _, err := m.conn.Read(buf); err != nil {
			return err
		}
	}
	m.echo = append(m.echo, ms(time.Since(t0)))
	return nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// factor is how many times slower than nominal the machine ran over the
// samples taken so far.
func (m *machine) factor() float64 {
	return math.Sqrt(mean(m.compute) / computeNominalMs * mean(m.echo) / echoNominalMs)
}
