package probe

// MaxRetainedScratch is maxRetainedScratch for the external tests.
const MaxRetainedScratch = maxRetainedScratch

// RetainedScratch reports the capacity, in segments, of the larger of the
// burst and ACK scratch buffers p keeps between gatherings.
func RetainedScratch(p *Prober) int { return max(cap(p.sess.burst), cap(p.sess.acks)) }
