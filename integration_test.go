package xartrek

// End-to-end integration: the compiler pipeline's threshold table
// drives a real TCP scheduler server, and application-side scheduler
// clients observe Algorithm 2's decisions shift as the platform load
// and FPGA state change — the deployment topology of Figure 2, with
// the x86/ARM/FPGA hardware simulated and the scheduler wire protocol
// real.

import (
	"sync"
	"testing"
	"time"

	"xartrek/internal/core/sched"
	"xartrek/internal/exper"
	"xartrek/internal/workloads"
)

func TestIntegrationPipelineToTCPScheduler(t *testing.T) {
	arts := facadeArtifacts(t)
	p := NewPlatform(arts)

	// Serve the platform's scheduler over real TCP.
	ts, err := sched.ListenAndServe("127.0.0.1:0", p.Server)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	tc, err := sched.Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	client := sched.NewClient("Digit2000", "KNL_HW_DR200", tc)

	// Idle platform: load 0 exceeds no threshold — Algorithm 2 keeps
	// the function on x86 and leaves the FPGA alone.
	d, err := client.Request()
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != TargetX86 || d.ReconfigStarted {
		t.Fatalf("idle decision = %+v, want plain x86", d)
	}

	// Raise the load. The kernel is not configured, and Digit2000's
	// thresholds (FPGA 0, ARM ~17) are both exceeded: Algorithm 2
	// lines 14-18 migrate to ARM and reconfigure in the background.
	mg, err := NewMGB()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p.LaunchApp(mg, ModeVanillaX86, 0, nil)
	}
	p.RunFor(100 * time.Millisecond)

	d, err = client.Request()
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != TargetARM {
		t.Fatalf("loaded pre-config decision = %v, want arm", d.Target)
	}
	if !d.ReconfigStarted {
		t.Fatal("scheduler did not start configuring the requested kernel")
	}

	// Let the reconfiguration complete while the load persists.
	p.RunFor(6 * time.Second)

	// Loaded platform, kernel resident: the same client now gets FPGA.
	d, err = client.Request()
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != TargetFPGA {
		t.Fatalf("loaded decision = %v, want fpga", d.Target)
	}
	if client.Flag() != TargetFPGA {
		t.Fatalf("client flag = %v, want fpga", client.Flag())
	}

	// The post-invocation report flows back over the wire and lands
	// in the platform's threshold table (Algorithm 1).
	if _, err := client.Report(1300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec, err := p.Server.Table().Get("Digit2000")
	if err != nil {
		t.Fatal(err)
	}
	if rec.FPGAExec != 1300*time.Millisecond {
		t.Fatalf("reported FPGA time not recorded: %v", rec.FPGAExec)
	}
}

func TestIntegrationManyClientsOneServer(t *testing.T) {
	arts := facadeArtifacts(t)
	p := NewPlatform(arts)
	p.RunFor(5 * time.Second) // nothing scheduled; clock idle

	ts, err := sched.ListenAndServe("127.0.0.1:0", p.Server)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	// One client per benchmark, concurrently, as instrumented
	// binaries would connect.
	apps := []struct{ name, kernel string }{
		{"CG-A", "KNL_HW_CG_A"},
		{"FaceDet320", "KNL_HW_FD320"},
		{"FaceDet640", "KNL_HW_FD640"},
		{"Digit500", "KNL_HW_DR500"},
		{"Digit2000", "KNL_HW_DR200"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(apps))
	for _, a := range apps {
		wg.Add(1)
		go func(name, kernel string) {
			defer wg.Done()
			tc, err := sched.Dial(ts.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer tc.Close()
			c := sched.NewClient(name, kernel, tc)
			for i := 0; i < 10; i++ {
				if _, err := c.Request(); err != nil {
					errs <- err
					return
				}
				if _, err := c.Report(100 * time.Millisecond); err != nil {
					errs <- err
					return
				}
			}
		}(a.name, a.kernel)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Server.Stats()
	if st.Requests != 50 || st.Reports != 50 {
		t.Fatalf("stats = %+v, want 50/50", st)
	}
}

func TestIntegrationInstrumentedModuleStillComputes(t *testing.T) {
	// The artifacts' modules were rewritten by step B; their kernels
	// must still interpret and produce results — instrumentation is a
	// semantics-preserving transformation.
	arts := facadeArtifacts(t)
	for _, appArt := range arts.Compile.Apps {
		var app *workloads.App
		for _, a := range arts.Apps {
			if a.Name == appArt.Name {
				app = a
			}
		}
		if app == nil {
			t.Fatalf("artifact app %s missing", appArt.Name)
		}
		m := app.Program.Module
		mainFn := m.Func("main")
		if mainFn == nil {
			t.Fatalf("%s: no main", app.Name)
		}
		// The dispatch wrapper must be the only caller path from main
		// to the kernel.
		if m.Func("__xar_sched_init") == nil {
			t.Fatalf("%s: module lost its instrumentation", app.Name)
		}
	}
	_ = exper.ModeXarTrek // keep the exper import for the shared build
}
