// Package locksafe seeds in-goroutine WaitGroup.Add and leakable
// goroutines — the two goroutine-lifetime mistakes elsachan's goroutine
// checks exist to catch before the race detector has to. (Locks copied
// by value are stock go vet's copylocks.)
package locksafe

import (
	"context"
	"sync"
)

func addInsideGoroutine() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want "WaitGroup.Add inside the goroutine it guards"
		defer wg.Done()
	}()
	wg.Wait()
}

func addBeforeGoroutine() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

func ownWaitGroupInside() {
	go func() {
		var inner sync.WaitGroup
		inner.Add(1) // fine: inner is owned by this goroutine
		go func() { inner.Done() }()
		inner.Wait()
	}()
}

func leakyInCancellable(ctx context.Context, ch chan int) {
	go func() { // want "neither a ctx reference nor a WaitGroup join"
		for {
			select {
			case v, ok := <-ch: // want "blocking receive from ch with no close, sender"
				if !ok {
					return
				}
				_ = v
			}
		}
	}()
}

func joinedInCancellable(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

func cancellableGoroutine(ctx context.Context, ch chan int) {
	go func() {
		select {
		case ch <- 1:
		case <-ctx.Done():
		}
	}()
}
