// Package simnet is a wallclock fixture: its directory name puts it in
// the analyzer's scope (segment "simnet").
package simnet

import (
	"math/rand"
	rnd "math/rand/v2"
	"time"
)

var someStart time.Time

// ambientTime exercises every banned time-package call.
func ambientTime() {
	now := time.Now() // want `time\.Now reads the ambient clock in a determinism-critical package; take time from an injected vclock\.Clock`
	_ = now
	time.Sleep(time.Second)   // want `time\.Sleep reads the ambient clock`
	_ = time.Since(someStart) // want `time\.Since reads the ambient clock`
	_ = time.Until(someStart) // want `time\.Until reads the ambient clock`
	<-time.After(time.Second) // want `time\.After reads the ambient clock`
	t := time.NewTimer(0)     // want `time\.NewTimer reads the ambient clock`
	t.Stop()
	k := time.NewTicker(1) // want `time\.NewTicker reads the ambient clock`
	k.Stop()
	time.AfterFunc(0, func() {}) // want `time\.AfterFunc reads the ambient clock`
}

// pureTime shows the time package's pure surface is untouched.
func pureTime() {
	_ = time.Date(2026, time.January, 1, 0, 0, 0, 0, time.UTC)
	_ = time.Unix(0, 0)
	_ = 3 * time.Second
	_ = time.Duration(42)
	var zero time.Time
	_ = zero.Add(time.Minute)
}

// globalRand exercises the banned global-generator surface of both
// math/rand and math/rand/v2.
func globalRand() {
	_ = rand.Intn(10)    // want `rand\.Intn draws from the global math/rand generator in a determinism-critical package; use an explicitly seeded rand\.New`
	_ = rand.Float64()   // want `rand\.Float64 draws from the global math/rand generator`
	rand.Shuffle(3, nil) // want `rand\.Shuffle draws from the global math/rand generator`
	_ = rnd.Uint64()     // want `rnd\.Uint64 draws from the global math/rand generator`
}

// seededRand shows the sanctioned constructors pass.
func seededRand() {
	r := rand.New(rand.NewSource(1))
	_ = r.Intn(10) // method on a seeded *rand.Rand, not the global funcs
	var z *rand.Zipf
	_ = z
	p := rnd.New(rnd.NewPCG(1, 2))
	_ = p.Uint64()
}

// suppressed proves one trailing waiver silences exactly one finding.
func suppressed() {
	_ = time.Now() //lint:allow wallclock(fixture: sanctioned gateway stand-in)
	_ = time.Now() // want `time\.Now reads the ambient clock`
}

// standalone proves a directive alone on its line targets the next line.
func standalone() {
	//lint:allow wallclock(fixture: stand-alone waiver targets the next line)
	_ = time.Now()
	_ = time.Now() // want `time\.Now reads the ambient clock`
}

// malformed directives are themselves diagnostics and waive nothing.
func malformed() {
	_ = time.Now() //lint:allow // want `time\.Now reads the ambient clock` `malformed lint:allow directive: want //lint:allow <analyzer>\(<reason>\) with a non-empty reason`
	_ = time.Now() //lint:allow wallclock // want `time\.Now reads the ambient clock` `malformed lint:allow directive`
	_ = time.Now() //lint:allow wallclock() // want `time\.Now reads the ambient clock` `malformed lint:allow directive`
}
