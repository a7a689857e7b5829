// Command b uses package a's exports.
package main

import "fixture/a"

type Stack struct{ n int }

func (s *Stack) Len() int { return s.n }

func main() {
	q := &a.Queue{}
	q.Push(1)
	var s a.Sizer = a.Box{}
	st := &Stack{}
	println(s.Size() + st.Len() + a.Used)
}
