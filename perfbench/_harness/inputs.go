package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash/crc32"
	"image/color"
	"math/rand/v2"
	"os"
	"unsafe"

	"gosensei/internal/oscillator"
	"gosensei/internal/render"
)

// controlSeed derives the seed whose references the negative control
// checks against: any seed other than the run's own.
func controlSeed(seed uint64) uint64 { return seed ^ 0x9e3779b97f4a7c15 }

// genDeck generates the oscillator deck from the seed: one oscillator of
// each kind, as in oscillator.DefaultDeck, in a seeded order and with
// seeded centres, radii, frequencies and damping. Centres stay near the
// mid-z plane the slice workload cuts, so every deck draws a comparable
// image and the PNG encode costs about the same on every seed.
func genDeck(seed uint64, edge float64) []oscillator.Oscillator {
	r := rand.New(rand.NewPCG(seed, 0x6f7363))
	kinds := []oscillator.Kind{oscillator.Periodic, oscillator.Damped, oscillator.Decaying}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	between := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	deck := make([]oscillator.Oscillator, len(kinds))
	for i, k := range kinds {
		deck[i] = oscillator.Oscillator{
			Kind:   k,
			Center: [3]float64{edge * between(0.2, 0.8), edge * between(0.2, 0.8), edge * between(0.4, 0.6)},
			Radius: edge * between(0.1, 0.2),
			Omega0: between(3, 10),
			Zeta:   between(0.1, 0.3),
		}
	}
	return deck
}

// genFrames generates the compositing inputs from the seed: sets of
// per-rank colour+depth framebuffers, each holding opaque discs at seeded
// positions, colours and depths on an empty (infinitely deep) background.
func genFrames(seed uint64, ranks, sets, w, h int) [][]*render.Framebuffer {
	r := rand.New(rand.NewPCG(seed, 0x636f6d70))
	out := make([][]*render.Framebuffer, ranks)
	for rank := range out {
		out[rank] = make([]*render.Framebuffer, sets)
		for k := range out[rank] {
			fb := render.NewFramebuffer(w, h)
			for d := 0; d < 24; d++ {
				cx, cy := r.IntN(w), r.IntN(h)
				rad := 40 + r.IntN(100)
				c := color.RGBA{R: uint8(r.IntN(256)), G: uint8(r.IntN(256)), B: uint8(r.IntN(256)), A: 255}
				depth := r.Float32()
				for y := max(0, cy-rad); y < min(h, cy+rad+1); y++ {
					for x := max(0, cx-rad); x < min(w, cx+rad+1); x++ {
						if (x-cx)*(x-cx)+(y-cy)*(y-cy) <= rad*rad {
							fb.Set(x, y, c, depth)
						}
					}
				}
			}
			out[rank][k] = fb
		}
	}
	return out
}

// loadFrame copies a pre-generated input into the working framebuffer; the
// compositor consumes its input, so every step starts from a fresh copy.
func loadFrame(dst, src *render.Framebuffer) {
	copy(dst.Color, src.Color)
	copy(dst.Depth, src.Depth)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameDigest fingerprints a composited framebuffer, colour and depth.
func frameDigest(fb *render.Framebuffer) uint32 {
	c := crc32.Update(0, castagnoli, fb.Color)
	depth := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fb.Depth))), len(fb.Depth)*4)
	return crc32.Update(c, castagnoli, depth)
}

// fileDigest fingerprints a file's bytes.
func fileDigest(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
