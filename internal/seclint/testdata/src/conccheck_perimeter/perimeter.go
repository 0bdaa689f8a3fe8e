// Package perimeter exercises the bounded-queue rule: the tests re-home
// this package to internal/session, where every data channel must carry
// an explicit capacity and only struct{} signal channels may be
// unbuffered.
package perimeter

func queues() (chan int, chan struct{}, chan int) {
	data := make(chan int)
	sig := make(chan struct{})
	bounded := make(chan int, 8)
	return data, sig, bounded
}
